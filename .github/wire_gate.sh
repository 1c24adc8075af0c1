#!/bin/sh
# Usage: .github/wire_gate.sh
# A wire type declares its bytes once, through cvm_net::wire!: fails if a
# hand-kept `u8` tag constant returns, or if an `impl Wire for` outside the
# primitive block of crates/net/src/wire.rs (everything above its
# `macro_rules! wire`) lacks a `// wire: hand-written — <reason>` line
# directly above it.
if git grep -nE 'const (DGRAM_)?TAG_[A-Z0-9_]*: u8' -- '*.rs'; then
  echo "hand-kept tag constant: declare the tags in a wire! enum" >&2
  exit 1
fi
bad=$(git ls-files '*.rs' | xargs awk '
  FNR == 1 { prev = ""; primitives = (FILENAME == "crates/net/src/wire.rs") }
  primitives && /^macro_rules! wire [{]/ { primitives = 0 }
  !primitives && /^[ \t]*impl(<.*>)? +Wire +for / && prev !~ /^[ \t]*\/\/ wire: hand-written — ./ {
    print FILENAME ":" FNR ": " $0
  }
  { prev = $0 }')
if [ -n "$bad" ]; then
  echo "$bad"
  echo "undeclared Wire impl: use wire!, or say why above it (// wire: hand-written — ...)" >&2
  exit 1
fi
