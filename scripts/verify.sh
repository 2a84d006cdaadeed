#!/usr/bin/env bash
# Pre-merge verification — the documented gate for every PR.
#
# Fully hermetic: no network, no registry access (all dependencies are
# in-tree path crates; see "Hermetic build" in README.md). Runs:
#
#   1. tier-1: rustfmt check (`cargo fmt --all -- --check`), a rustdoc
#      gate (every crate's docs, private items included, build with no
#      warning, so a link to code that is gone fails), a clippy gate
#      (every target of every crate, warnings are errors), release build +
#      full workspace test suite (the root manifest's default-members
#      make plain `cargo test` cover every crate too)
#   2. bench smoke: every `cargo bench` target compiles and executes
#   3. seed-pinned reproducibility: two E9_SEED=42 synth+rewrite runs
#      must produce byte-identical artifacts
#   4. e9patchd smoke: a daemon on a temp Unix socket patches the same
#      binary through the wire protocol, byte-identical to step 3's
#      in-process output, and shuts down cleanly; the same holds with
#      --no-grouping (the naive one-to-one layout) and with
#      --granularity 16, each of which must move the output; then a large
#      input (gcc at scale 50, whose replies overflow a pipe buffer many
#      times over) is patched through `--backend stdio` and through a socket
#      daemon, each under `timeout 120` and each byte-identical to the
#      in-process output, so a client window that deadlocks or reorders
#      fails the gate
#   5. fault-injection smoke: a seeded e9fault campaign (520 structured
#      mutants across the ELF and wire surfaces; ELF mutants run through
#      the instrumentation rewrite too; every wire reply line is read back
#      by the client's one-pass readers and by the tree readers, which
#      must agree; the wire mutations include `respell`, which rewrites
#      one request line, an `instruction` line when there is one, in a
#      spelling the server's byte comparison must refuse: uppercase hex,
#      a leading zero, a space after a colon, or members swapped; so
#      every run compares near-canonical instruction lines against
#      `reference_reply`) must complete with zero panics;
#      failures print an E9FAULT_SEED replay line. Then the release
#      `e9tool patch` of six corpus inputs that cannot be rewritten
#      must exit 1 with a message and write no output: vaddr-wrap.bin (a
#      load segment at the top of the address space), offset-oob.bin (a
#      load segment whose file range lies past EOF), text-wrap.bin (a
#      `.text` whose addresses wrap past 2^64), phnum-max.bin (65,535
#      program headers, so the output's would not fit `e_phnum`),
#      overlap-congruent.bin (two load segments mapping the text's page
#      from different file pages) and vaddr-incongruent.bin (a load
#      segment whose p_vaddr and p_offset differ modulo the page); the
#      diagnostics of these two name the segment and the rule it breaks
#   6. cross-path cache hit: a cache directory filled by an e9patchd
#      session must serve a later in-process `e9tool patch --cache-dir`
#      a hit, byte-identical to a --no-cache rewrite (and to the daemon's
#      own reply)
#   7. rewrite cache: patching twice with --cache-dir must report a miss
#      then a hit with byte-identical output, a tiny input through a
#      default-threshold cache must report a bypass, --no-cache must skip
#      the store, contradictory flags must fail with exit 1, a seeded
#      cache-surface fault campaign must pass, and a quick full-ladder
#      bench run must show the warm memory hit beating the uncached
#      rewrite at the largest rung (the hot-path perf gate; the committed
#      results/bench_cache.json is restored afterwards)
#   8. serving core: the reactor daemon must patch byte-identically to
#      the in-process output, the TCP transport must serve a full job
#      through e9tool --backend tcp:, a seeded loop-surface fault campaign
#      (hostile client behaviors against a live reactor) must pass, and
#      the bench_serve smoke runs 512 concurrent sessions against the
#      reactor with every client asserting byte-identity against an
#      in-process reference
#   9. environmental I/O faults: a seeded io-surface campaign (24 cases
#      driving ENOSPC/EIO/EINTR/short-write/failed-rename schedules
#      through full rewrite jobs against live daemons) must pass, and a
#      disk-full smoke boots a daemon whose cache CAS fails under an
#      E9FAILPOINTS ENOSPC schedule: rewrites stay byte-identical while
#      the disk circuit breaker trips to memory-only mode, probes, and
#      recovers — the whole walk observed through `e9tool health`, its
#      summary and its raw `--json` reply
#  10. hook smoke: `e9tool hook --func 'f*' --call-original` must leave
#      program stdout byte-identical under e9vm while every counter
#      fires (the payload side effect), hook output must be
#      byte-identical through a live daemon, and a run without
#      --call-original must also preserve stdout
#  11. flake gate: the suites that race on process-global state or live
#      daemons (e9cache failpoints, e9proto reactor_daemon and
#      cache_daemon) each rerun 5 times; any failure fails the gate
#
# Knobs: E9QCHECK_CASES scales property-test depth (default 64);
# E9_SEED pins the generator seed used by step 3's CLI runs;
# E9FAULT_SEED pins the fault campaign seeds used by steps 5, 7, 8, 9.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== tier-1: cargo fmt --check =="
cargo fmt --all -- --check

echo "== tier-1: cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --document-private-items

echo "== tier-1: cargo clippy (warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release =="
cargo build --release --offline --workspace

echo "== tier-1: cargo test (workspace) =="
cargo test -q --offline --workspace

echo "== bench smoke (in-tree harness) =="
cargo bench -q --offline -p e9bench -- --smoke --no-json

echo "== seed-pinned reproducibility (E9_SEED=${E9_SEED:-42}) =="
export E9_SEED="${E9_SEED:-42}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# wait_for_socket PATH WHAT: poll up to 5 s for a daemon's Unix socket at
# PATH; fail the gate naming WHAT if it never appears.
wait_for_socket() {
  for _ in $(seq 1 100); do
    [ -S "$1" ] && return 0
    sleep 0.05
  done
  echo "$2 never bound its socket" >&2
  exit 1
}
e9tool=(cargo run -q --release --offline -p e9front --bin e9tool --)
"${e9tool[@]}" gen --tiny verify -o "$tmp/a.elf"
"${e9tool[@]}" gen --tiny verify -o "$tmp/b.elf"
cmp "$tmp/a.elf" "$tmp/b.elf"
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.e9" --app a1 --verify
"${e9tool[@]}" patch "$tmp/b.elf" -o "$tmp/b.e9" --app a1 --verify
cmp "$tmp/a.e9" "$tmp/b.e9"
echo "byte-identical artifacts: ok"

echo "== e9patchd smoke (wire protocol vs in-process) =="
sock="$tmp/e9.sock"
target/release/e9patchd --socket "$sock" --max-conns 1 &
daemon_pid=$!
wait_for_socket "$sock" "daemon"
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.wire.e9" --app a1 --backend "$sock"
wait "$daemon_pid"
cmp "$tmp/a.e9" "$tmp/a.wire.e9"
echo "backend output byte-identical to in-process: ok"
# The emit options over the wire: each must reach the daemon (its output
# differs from the default layout) and match the in-process rewrite.
n=0
for emit in --no-grouping "--granularity 16"; do
  n=$((n + 1))
  # shellcheck disable=SC2086 # "$emit" is a flag and its value
  "${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.emit$n.e9" --app a1 $emit
  esock="$tmp/e9.emit$n.sock"
  target/release/e9patchd --socket "$esock" --max-conns 1 &
  epid=$!
  wait_for_socket "$esock" "daemon ($emit)"
  # shellcheck disable=SC2086
  "${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.emit$n.wire.e9" --app a1 $emit \
    --backend "$esock" || { kill "$epid"; exit 1; }
  wait "$epid"
  cmp "$tmp/a.emit$n.e9" "$tmp/a.emit$n.wire.e9"
  if cmp -s "$tmp/a.e9" "$tmp/a.emit$n.e9"; then
    echo "$emit did not change the output" >&2
    exit 1
  fi
done
echo "--no-grouping and --granularity 16 through the daemon byte-identical: ok"
"${e9tool[@]}" gen --profile gcc --scale 50 -o "$tmp/g.elf"
"${e9tool[@]}" patch "$tmp/g.elf" -o "$tmp/g.e9" --app a1
timeout 120 target/release/e9tool patch "$tmp/g.elf" -o "$tmp/g.stdio.e9" --app a1 \
  --backend stdio
gsock="$tmp/e9.large.sock"
target/release/e9patchd --socket "$gsock" --max-conns 1 &
gpid=$!
wait_for_socket "$gsock" "large-input daemon"
timeout 120 target/release/e9tool patch "$tmp/g.elf" -o "$tmp/g.wire.e9" --app a1 \
  --backend "$gsock" || { kill "$gpid"; exit 1; }
wait "$gpid"
cmp "$tmp/g.e9" "$tmp/g.stdio.e9"
cmp "$tmp/g.e9" "$tmp/g.wire.e9"
echo "large input through stdio and socket backends byte-identical to in-process: ok"

echo "== fault-injection smoke (E9FAULT_SEED=${E9FAULT_SEED:-42}) =="
target/release/e9fault --seed "${E9FAULT_SEED:-42}" --elf-cases 320 --wire-cases 200
# Inputs that cannot be rewritten: the release rewrite path must refuse
# each (exit 1, a message, no output), not write an output that cannot
# load. Each name is paired with text its diagnostic must contain.
for refused in "vaddr-wrap:address space" "offset-oob:past the end of the input" \
  "text-wrap:runs past the end of the address space" \
  "phnum-max:program headers" \
  "overlap-congruent:PT_LOAD at 0x401000: shares a page" \
  "vaddr-incongruent:PT_LOAD at 0x401169: p_vaddr and p_offset differ modulo the page"; do
  name=${refused%%:*}
  want=${refused#*:}
  bad_in=crates/faultgen/tests/corpus/$name.bin
  bad_rc=0
  target/release/e9tool patch "$bad_in" -o "$tmp/$name.e9" --payload counter \
    2>"$tmp/$name.log" || bad_rc=$?
  [ "$bad_rc" -eq 1 ] || { echo "patching $bad_in exited $bad_rc, want 1" >&2; exit 1; }
  grep -q "$want" "$tmp/$name.log" \
    || { echo "no diagnostic for $bad_in:" >&2; cat "$tmp/$name.log" >&2; exit 1; }
  [ ! -e "$tmp/$name.e9" ] || { echo "refused $bad_in still wrote an output" >&2; exit 1; }
  echo "$name input refused with a typed error and no output: ok"
done

echo "== cross-path cache hit (daemon fills, in-process hits) =="
"${e9tool[@]}" gen --profile perlbench --scale 200 -o "$tmp/p.elf"
"${e9tool[@]}" patch "$tmp/p.elf" -o "$tmp/p.cold.e9" --app a1 --no-cache
xsock="$tmp/e9.cross.sock"
target/release/e9patchd --socket "$xsock" --max-conns 1 \
  --cache-dir "$tmp/cache-cross" --cache-bypass-bytes 0 &
xpid=$!
wait_for_socket "$xsock" "cache-filling daemon"
"${e9tool[@]}" patch "$tmp/p.elf" -o "$tmp/p.fill.e9" --app a1 --backend "$xsock" \
  | tee "$tmp/x1.log"
wait "$xpid"
grep -q "cache: miss" "$tmp/x1.log" || { echo "daemon fill run did not miss" >&2; exit 1; }
"${e9tool[@]}" patch "$tmp/p.elf" -o "$tmp/p.hit.e9" --app a1 \
  --cache-dir "$tmp/cache-cross" --cache-bypass-bytes 0 | tee "$tmp/x2.log"
grep -q "cache: hit" "$tmp/x2.log" \
  || { echo "in-process run did not hit the daemon-filled cache" >&2; exit 1; }
cmp "$tmp/p.cold.e9" "$tmp/p.hit.e9"
cmp "$tmp/p.cold.e9" "$tmp/p.fill.e9"
echo "daemon-filled cache serves in-process hits byte-identically: ok"

echo "== rewrite cache (cold store, warm hit, byte-identical) =="
cdir="$tmp/cache"
# The verify workload is tiny, below the default size bypass — disable
# the threshold here so the miss/hit mechanics are actually exercised.
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.c1.e9" --app a1 --cache-dir "$cdir" \
  --cache-bypass-bytes 0 | tee "$tmp/c1.log"
grep -q "cache: miss" "$tmp/c1.log" || { echo "first cached run did not miss" >&2; exit 1; }
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.c2.e9" --app a1 --cache-dir "$cdir" \
  --cache-bypass-bytes 0 | tee "$tmp/c2.log"
grep -q "cache: hit" "$tmp/c2.log" || { echo "second cached run did not hit" >&2; exit 1; }
cmp "$tmp/a.c1.e9" "$tmp/a.c2.e9"
cmp "$tmp/a.e9" "$tmp/a.c1.e9"
# Same tiny input through a DEFAULT-threshold cache: bypassed, not keyed.
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.cb.e9" --app a1 --cache-dir "$tmp/cache-bypass" \
  | tee "$tmp/cb.log"
grep -q "cache: bypass" "$tmp/cb.log" \
  || { echo "tiny input did not bypass a default-threshold cache" >&2; exit 1; }
cmp "$tmp/a.e9" "$tmp/a.cb.e9"
E9CACHE_DIR="$cdir" "${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.c3.e9" --app a1 --no-cache \
  | tee "$tmp/c3.log"
if grep -q "cache:" "$tmp/c3.log"; then
  echo "--no-cache still touched the cache" >&2; exit 1
fi
cmp "$tmp/a.e9" "$tmp/a.c3.e9"
if "${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.c4.e9" --app a1 \
    --no-cache --cache-dir "$cdir" 2>"$tmp/c4.log"; then
  echo "--no-cache with --cache-dir must fail" >&2; exit 1
fi
grep -q -- "--no-cache contradicts --cache-dir" "$tmp/c4.log" \
  || { echo "conflict diagnostic missing" >&2; cat "$tmp/c4.log" >&2; exit 1; }
echo "cache miss/hit byte-identical, size bypass and conflict diagnostics: ok"
target/release/e9fault --seed "${E9FAULT_SEED:-42}" --surface cache --cache-cases 120

echo "== cache hot-path perf gate (warm hit vs cold rewrite) =="
# Run the full ladder with few samples (quick but real measurements),
# then require the warm memory hit to beat the uncached rewrite at the
# largest rung. The committed results file is saved and restored — this
# run is a gate, not a results refresh.
bench_json="results/bench_cache.json"
cp "$bench_json" "$tmp/bench_cache.committed.json"
cargo bench -q --offline -p e9bench --bench cache -- --samples 3 | tee "$tmp/bench_cache.log"
median_ns() {
  grep -o "\"name\": \"$1\", \"median_ns\": [0-9.]*" "$bench_json" \
    | sed 's/.*median_ns.: //'
}
top_rung="128MiB"
warm="$(median_ns "patch_warm_mem/$top_rung")"
uncached="$(median_ns "patch_uncached/$top_rung")"
mv "$tmp/bench_cache.committed.json" "$bench_json"
[ -n "$warm" ] && [ -n "$uncached" ] \
  || { echo "perf gate: missing $top_rung medians in bench output" >&2; exit 1; }
grep "break-even" "$tmp/bench_cache.log" || true
if ! awk -v w="$warm" -v u="$uncached" 'BEGIN { exit !(w < u) }'; then
  echo "perf gate FAILED: warm hit ($warm ns) slower than uncached ($uncached ns) at $top_rung" >&2
  exit 1
fi
echo "perf gate: warm hit ($warm ns) beats uncached rewrite ($uncached ns) at $top_rung"

echo "== serving core: reactor vs in-process byte-identity =="
rsock="$tmp/e9.reactor.sock"
target/release/e9patchd --socket "$rsock" --max-conns 1 &
rpid=$!
wait_for_socket "$rsock" "reactor daemon"
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.reactor.e9" --app a1 --backend "$rsock"
wait "$rpid"
cmp "$tmp/a.e9" "$tmp/a.reactor.e9"
echo "reactor output byte-identical to in-process: ok"

echo "== serving core: TCP transport =="
target/release/e9patchd --listen-tcp 127.0.0.1:0 --max-conns 1 2>"$tmp/tcp.log" &
tcppid=$!
for _ in $(seq 1 100); do
  grep -q "listening on tcp" "$tmp/tcp.log" && break
  sleep 0.05
done
addr="$(sed -n 's/.*listening on tcp \([^ ]*\) .*/\1/p' "$tmp/tcp.log")"
[ -n "$addr" ] || { echo "daemon never announced its TCP address" >&2; exit 1; }
"${e9tool[@]}" patch "$tmp/a.elf" -o "$tmp/a.tcp.e9" --app a1 --backend "tcp:$addr"
wait "$tcppid"
cmp "$tmp/a.e9" "$tmp/a.tcp.e9"
echo "tcp backend output byte-identical to in-process: ok"

echo "== serving core: loop fault campaign + 512-connection smoke =="
target/release/e9fault --seed "${E9FAULT_SEED:-42}" --surface loop --loop-cases 24
cargo bench -q --offline -p e9bench --bench serve -- --smoke --no-json

echo "== environmental I/O fault campaign =="
target/release/e9fault --seed "${E9FAULT_SEED:-42}" --surface io --io-cases 24

echo "== disk-full degradation: breaker trip, probe, recovery via health =="
fsock="$tmp/e9.fault.sock"
E9FAILPOINTS="cache.disk.stage=enospc@first:4" \
E9FAILPOINTS_SEED="${E9FAULT_SEED:-42}" \
  target/release/e9patchd --socket "$fsock" --cache-dir "$tmp/fault-cas" \
  --cache-bypass-bytes 0 2>"$tmp/faultd.log" &
fpid=$!
wait_for_socket "$fsock" "fault daemon"
grep -q "fault injection active" "$tmp/faultd.log" \
  || { echo "daemon did not announce fault injection" >&2; exit 1; }
# Twelve distinct inputs (one Table 1 profile each) -> twelve distinct
# cache keys, so every job is a miss + store attempt. The first:4
# ENOSPC schedule walks the breaker deterministically: jobs 0-2 fail
# their stores and trip it, jobs 3-5 fast-fail both lookup and store,
# job 6's store probes and eats the 4th injected fault, jobs 7-9
# fast-fail, job 10's store probes against the now-exhausted schedule
# and recovers, job 11 runs normally. Every rewrite must stay
# byte-identical to the in-process path throughout — disk-full degrades
# the cache, never the output.
fprofiles=(perlbench bzip2 gcc bwaves mcf milc gromacs leslie3d namd soplex hmmer sjeng)
i=0
for prof in "${fprofiles[@]}"; do
  "${e9tool[@]}" gen --profile "$prof" --scale 200 -o "$tmp/f$i.elf"
  "${e9tool[@]}" patch "$tmp/f$i.elf" -o "$tmp/f$i.wire.e9" --app a1 --backend "$fsock"
  "${e9tool[@]}" patch "$tmp/f$i.elf" -o "$tmp/f$i.ref.e9" --app a1
  cmp "$tmp/f$i.wire.e9" "$tmp/f$i.ref.e9"
  if [ "$i" -eq 4 ]; then
    "${e9tool[@]}" health --backend "$fsock" | tee "$tmp/health.mid.log"
    grep -q "cache breaker: OPEN" "$tmp/health.mid.log" \
      || { echo "breaker not open mid-outage" >&2; exit 1; }
  fi
  i=$((i + 1))
done
"${e9tool[@]}" health --backend "$fsock" | tee "$tmp/health.end.log"
grep -q "cache breaker: closed (1 trips, 1 recoveries, 14 fast-fails, 2 probes)" \
  "$tmp/health.end.log" \
  || { echo "breaker walk did not end in recovery with the pinned counters" >&2; exit 1; }
grep -q "faults:        enabled, 4 injected" "$tmp/health.end.log" \
  || { echo "health did not report the injected-fault count" >&2; exit 1; }
# The raw reply (`health --json`) carries the same pinned counters.
"${e9tool[@]}" health --backend "$fsock" --json | tee "$tmp/health.end.json"
for pin in '"disk_breaker_trips":1' '"disk_breaker_recoveries":1' \
  '"disk_breaker_fast_fails":14' '"disk_breaker_probes":2' '"injected":4'; do
  grep -qF "$pin" "$tmp/health.end.json" \
    || { echo "health --json lacks $pin" >&2; exit 1; }
done
kill "$fpid" 2>/dev/null || true
wait "$fpid" 2>/dev/null || true
echo "disk-full walk: trip, probe, recovery, byte-identical throughout: ok"

echo "== hook smoke: differential behaviour + planner determinism =="
"${e9tool[@]}" gen --tiny hooksmoke -o "$tmp/h.elf"
"${e9tool[@]}" run "$tmp/h.elf" >"$tmp/h.orig.out"
# Call-original hooks: stdout must be untouched, counters must fire.
"${e9tool[@]}" hook "$tmp/h.elf" -o "$tmp/h.co.hk" --func 'f*' --call-original
"${e9tool[@]}" run "$tmp/h.co.hk" --hook-counters \
  >"$tmp/h.co.out" 2>"$tmp/h.co.counters"
cmp "$tmp/h.orig.out" "$tmp/h.co.out"
grep -E "^hook +[0-9]+ .* calls [1-9]" "$tmp/h.co.counters" >/dev/null \
  || { echo "no hook counter ever fired" >&2; cat "$tmp/h.co.counters" >&2; exit 1; }
# Plain (no call-original) hooks preserve stdout too.
"${e9tool[@]}" hook "$tmp/h.elf" -o "$tmp/h.plain.hk" --func 'f*'
"${e9tool[@]}" run "$tmp/h.plain.hk" >"$tmp/h.plain.out" 2>/dev/null
cmp "$tmp/h.orig.out" "$tmp/h.plain.out"
# Hook output is byte-identical through a live daemon serving the hook
# wire command.
hsock="$tmp/e9.hook.sock"
target/release/e9patchd --socket "$hsock" --max-conns 1 &
hpid=$!
wait_for_socket "$hsock" "hook daemon"
"${e9tool[@]}" hook "$tmp/h.elf" -o "$tmp/h.wire.hk" --func 'f*' --call-original \
  --backend "$hsock"
wait "$hpid"
cmp "$tmp/h.co.hk" "$tmp/h.wire.hk"
echo "hooked stdout identical, counters fired, daemon byte-identical: ok"

echo "== flake gate: failpoint and daemon suites, 5 reruns each =="
for suite in "e9cache failpoints" "e9proto reactor_daemon" "e9proto cache_daemon"; do
  set -- $suite
  for run in 1 2 3 4 5; do
    cargo test -q --offline -p "$1" --test "$2" >"$tmp/flake.log" 2>&1 \
      || { echo "flake gate: $1/$2 failed on run $run" >&2; cat "$tmp/flake.log" >&2; exit 1; }
  done
  echo "$1/$2: 5/5 passed"
done

echo "ALL CHECKS PASSED"
