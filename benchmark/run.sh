#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it from the repository root.
#
#   benchmark/run.sh                          whole suite: every workload,
#                                             untraced then traced, one
#                                             process each
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run (the BENCHMARK.json
#                                             command)
#   benchmark/run.sh compare OLD.json NEW.json
#   benchmark/run.sh check
set -euo pipefail
cd "$(dirname "$0")/.."

# Allocator policy of every run, a constant of the benchmark because it
# moves the numbers: glibc keeps freed memory in the heap instead of
# returning it to the kernel (blocks up to 32 MiB come from the heap, the
# heap is never trimmed). The pipeline allocates and frees a whole graph per
# query and per batch; under glibc's default policy each of those is an
# mmap/munmap pair plus its page faults, whose cost on a small virtual
# machine differs by 25% between two runs of one input (BASELINE.md has both
# sets of numbers) and drowns the library's own time. To measure under
# another policy, edit this line and measure that as a change of its own;
# `compare` refuses two result files that differ in it.
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=4294967295:glibc.malloc.top_pad=268435456

if [ "$#" -eq 0 ]; then
    set -- suite
fi
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
