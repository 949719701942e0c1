#!/usr/bin/env sh
# Smoke-tests the live ops endpoint end to end: builds nylon-sim, starts a
# run with -http on an ephemeral port, scrapes /metrics mid-run, and checks
# the kernel, health, and network series are all present. Exercises the real
# HTTP path a dashboard would use, not just the unit-tested handlers.
#
#   scripts/ops_smoke.sh
#
# Exits 0 on success, 1 on a missing series or scrape failure.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/nylon-sim" ./cmd/nylon-sim

# A run big enough to still be in flight when we scrape; -trace arms the
# per-shard rings so /debug/trace has something to serve.
"$tmp/nylon-sim" -n 2000 -rounds 300 -protocol nylon -nat 80 -trace \
  -http 127.0.0.1:0 >"$tmp/out.log" 2>"$tmp/err.log" &
pid=$!

# The CLI prints "ops endpoint listening on http://ADDR" to stderr once bound.
addr=""
for _ in $(seq 1 50); do
  addr="$(sed -n 's#^ops endpoint listening on http://##p' "$tmp/err.log" | head -1)"
  [ -n "$addr" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "ops_smoke: nylon-sim exited early:" >&2; cat "$tmp/err.log" >&2; exit 1; }
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "ops_smoke: endpoint never announced itself" >&2
  cat "$tmp/err.log" >&2
  exit 1
fi

scrape() {
  if command -v curl >/dev/null 2>&1; then
    curl -fsS "http://$addr$1"
  else
    wget -qO- "http://$addr$1"
  fi
}

# Give the kernel a moment to process events, then scrape mid-run.
sleep 1
metrics="$(scrape /metrics)"

fail=0
for series in \
  nylon_kernel_events_total \
  nylon_kernel_exec_seconds_total \
  nylon_kernel_barrier_seconds_total \
  nylon_kernel_windows_total \
  nylon_health_alive_peers \
  nylon_health_view_entries \
  nylon_health_dead_entries \
  nylon_net_datagrams_sent_total \
  nylon_heap_alloc_bytes \
; do
  if ! printf '%s\n' "$metrics" | grep -q "^$series "; then
    echo "ops_smoke: /metrics missing series $series" >&2
    fail=1
  fi
done

# The health endpoint and the JSON dump must answer too.
[ "$(scrape /healthz)" = "ok" ] || { echo "ops_smoke: /healthz did not answer ok" >&2; fail=1; }
vars="$(scrape /debug/vars)" || { echo "ops_smoke: /debug/vars did not answer" >&2; fail=1; vars=""; }
printf '%s' "$vars" | grep -q '"kernel"' || { echo "ops_smoke: /debug/vars missing kernel section" >&2; fail=1; }
printf '%s' "$vars" | grep -q '"health"' || { echo "ops_smoke: /debug/vars missing health section" >&2; fail=1; }

# /debug/trace must serve a bounded JSON tail through the live barrier tap.
tracebody="$(scrape '/debug/trace?n=16')" || { echo "ops_smoke: /debug/trace did not answer" >&2; fail=1; tracebody=""; }
printf '%s' "$tracebody" | grep -q '"events"' || { echo "ops_smoke: /debug/trace missing events array" >&2; fail=1; }
printf '%s' "$tracebody" | grep -q '"op"' || { echo "ops_smoke: /debug/trace tail holds no events" >&2; fail=1; }

# Alive peers must be non-zero mid-run.
alive="$(printf '%s\n' "$metrics" | awk '$1 == "nylon_health_alive_peers" {print $2}')"
case "$alive" in
  ''|0) echo "ops_smoke: nylon_health_alive_peers = '$alive', want > 0" >&2; fail=1 ;;
esac

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true

if [ "$fail" = 0 ]; then
  echo "ops_smoke: OK — scraped $(printf '%s\n' "$metrics" | grep -c '^nylon_') nylon series from http://$addr/metrics mid-run"
fi
exit "$fail"
