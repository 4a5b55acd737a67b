#!/bin/bash
set -u
cd "$(dirname "$0")"
S="--scale 0.15 --repeats 3 --seed 1"
for exp in exp_table2 exp_table3 exp_table4 exp_fig1 exp_fig3 exp_fig4 exp_fig5 exp_fig12 exp_fig13 exp_component_time; do
  ./target/release/$exp $S > results/${exp#exp_}.txt 2>&1
  echo "done $exp"
done
./target/release/exp_fig9  $S > results/fig9.txt 2>&1;  echo done exp_fig9
./target/release/exp_fig10 $S > results/fig10.txt 2>&1; echo done exp_fig10
./target/release/exp_fig11 $S > results/fig11.txt 2>&1; echo done exp_fig11
./target/release/exp_table9 --scale 0.15 --seed 1 > results/table9.txt 2>&1; echo done exp_table9
./target/release/exp_table1 --scale 0.1 --repeats 2 --seed 1 > results/table1.txt 2>&1; echo done exp_table1
./target/release/exp_scalability --seed 1 > results/scalability.txt 2>&1; echo done exp_scalability
./target/release/exp_ablation --scale 0.15 --seed 1 > results/ablation.txt 2>&1; echo done exp_ablation
echo ALL-DONE
