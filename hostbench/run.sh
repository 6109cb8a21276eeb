#!/usr/bin/env bash
# Builds the host-plane benchmark from source and runs it with the given
# arguments (--workload, --seed, --seconds, --trace). Run it from the root of
# a checkout: the binary, the Go build cache and the profiles all stay under
# .bench_build/ there.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local
export GOWORK=off

(cd "${root}/hostbench" && go build -o "${out}/hostbench" .) 1>&2

# Pin the run to one CPU. On a shared 2-vCPU virtual machine, runs that keep
# both vCPUs busy land 40-60% apart depending on where the host places the
# vCPUs; runs pinned to one CPU repeat within about 1%.
pin=()
if command -v taskset >/dev/null 2>&1; then
  cpu="$(taskset -pc $$ | sed -e 's/.*: *//' -e 's/[-,].*//')"
  pin=(taskset -c "${cpu}")
fi
${pin[@]+"${pin[@]}"} "${out}/hostbench" -out "${out}" "$@"
