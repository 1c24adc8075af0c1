#!/bin/bash
set -x
cd /root/repo
# 1. Full test suite.
cargo test --workspace 2>&1 | tee /root/repo/test_output.txt
# 2. The ledger's traced pass (per-layer rows) + the full evaluation harness.
{
  echo "================ LEDGER (traced) ================"
  cargo run --release -p cvm-bench --bin ledger -- --trace 1 2>&1
  echo
  echo "================ TABLE 2 ================"
  cargo run --release -p cvm-bench --bin table2 2>/dev/null
  echo
  echo "================ TABLE 1 ================"
  cargo run --release -p cvm-bench --bin table1 2>/dev/null
  echo
  echo "================ TABLE 3 ================"
  cargo run --release -p cvm-bench --bin table3 2>/dev/null
  echo
  echo "================ FIGURE 3 ================"
  cargo run --release -p cvm-bench --bin fig3 2>/dev/null
  echo
  echo "================ FIGURE 4 ================"
  cargo run --release -p cvm-bench --bin fig4 2>/dev/null
  echo
  echo "================ FIGURE 5 ================"
  cargo run --release -p cvm-bench --bin fig5 2>/dev/null
  echo
  echo "================ ABLATIONS ================"
  cargo run --release -p cvm-bench --bin ablation 2>/dev/null
} 2>&1 | tee /root/repo/bench_output.txt
echo ALL_DONE
