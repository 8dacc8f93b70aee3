#!/usr/bin/env bash
# Lists the qfc library functions that no product binary reaches, and fails
# on any that scripts/reachability_allowlist.txt does not name.
#
# The product binaries are qfc_perfbench, qfc_sweep, every bench_* and every
# example_*. They are built in build-reachability/ (configured through
# perfbench/CMakeLists.txt, which pulls in the root project, so every product
# target is in one tree) at -O0, so that no call is hidden by inlining, with
# one section per function and --gc-sections at link time, so that each
# binary keeps exactly the functions it can reach. A function counts when its
# own qualified name is in qfc:: (mangled prefix _ZN3qfc or _ZNK3qfc),
# libqfc.a defines it and no product binary keeps it. Names are printed
# demangled, parameters stripped, one per overload set.
#
# Allowlist format: one name per line, then `#` and the reason it stays
# (a test reference, a test hook, ...). Blank lines are ignored.
#
# Usage: scripts/reachability.sh
# Exit status: 0 when every unreached name is on the allowlist and every
# allowlist name is unreached; 1 otherwise.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/build-reachability"
allowlist="$root/scripts/reachability_allowlist.txt"

cmake -S "$root/perfbench" -B "$build" \
  -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE=-O0 \
  -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null

targets=(qfc_perfbench qfc_sweep)
for src in "$root"/bench/bench_*.cpp; do targets+=("$(basename "$src" .cpp)"); done
for src in "$root"/examples/*.cpp; do targets+=("example_$(basename "$src" .cpp)"); done
cmake --build "$build" -j "$(nproc)" --target "${targets[@]}" > /dev/null

binaries=("$build/qfc_perfbench")
for target in "${targets[@]:1}"; do binaries+=("$build/qfc/$target"); done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Defined code symbols (T/W, plus t for internal-linkage functions) in qfc::.
qfc_text() { nm --defined-only "$@" | awk '$2 ~ /^[TtWw]$/ && $3 ~ /^_ZNK?3qfc/ { print $3 }'; }

qfc_text "$build/qfc/libqfc.a" | sort -u > "$tmp/defined"
for bin in "${binaries[@]}"; do qfc_text "$bin"; done | sort -u > "$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" | c++filt -p | sort -u > "$tmp/unreached"

sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' "$allowlist" | sort -u > "$tmp/allowed"

status=0
while IFS= read -r name; do
  if grep -qxF -- "$name" "$tmp/allowed"; then
    echo "  $name"
  else
    echo "NEW $name"
    status=1
  fi
done < "$tmp/unreached"
while IFS= read -r name; do
  echo "STALE $name (on the allowlist but reached or gone)"
  status=1
done < <(comm -13 "$tmp/unreached" "$tmp/allowed")

echo "$(wc -l < "$tmp/unreached") unreached names, $(wc -l < "$tmp/allowed") allowlisted"
if [ "$status" -ne 0 ]; then
  echo "reachability: every unreached library function needs a product caller," \
       "deletion, or an allowlist line with its reason ($allowlist)" >&2
fi
exit "$status"
