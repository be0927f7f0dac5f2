#!/usr/bin/env bash
# Chaos suite for csst-serve: each scenario boots a fresh server with a
# deterministic fault (injected via --faults, or provoked by a
# misbehaving client), checks that exactly the targeted session fails
# or recovers with the expected structured error, proves the server
# still serves a healthy follow-up session, and finishes with a clean
# SHUTDOWN whose exit code (including the server's own) is checked.
#
#   scripts/fault_smoke.sh [--release]
#
# CI runs it with --release against the already-built binaries.
set -euo pipefail

cd "$(dirname "$0")/.."

profile="debug"
cargo_flags=()
if [[ "${1:-}" == "--release" ]]; then
    profile="release"
    cargo_flags=(--release)
fi

cargo build "${cargo_flags[@]}" -p csst-serve --bins
serve="target/$profile/csst-serve"
client="target/$profile/csst-client"

logdir="$(mktemp -d)"
trap 'rm -rf "$logdir"' EXIT

fail=0
server_pid=""
addr=""

# start_server LOG [serve flags...] — boots a server on an OS-chosen
# port and waits for its address.
start_server() {
    local log="$1"
    shift
    "$serve" --listen tcp:127.0.0.1:0 "$@" >"$logdir/$log" 2>&1 &
    server_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/^listening on //p' "$logdir/$log" | head -n1)"
        [[ -n "$addr" ]] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "fault_smoke: server died before binding ($log)" >&2
            cat "$logdir/$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [[ -z "$addr" ]]; then
        echo "fault_smoke: server never reported an address ($log)" >&2
        exit 1
    fi
}

# stop_server LOG — clean SHUTDOWN; the server must exit 0.
stop_server() {
    local log="$1"
    local code=0
    "$client" --connect "$addr" --analysis hb --format binary \
        --shutdown >"$logdir/$log.shutdown" 2>&1 || code=$?
    if [[ "$code" != "1" ]]; then
        # The hb demo is racy, so the shutdown-driving session exits 1.
        echo "fault_smoke: shutdown driver exited $code (want 1) after $log" >&2
        cat "$logdir/$log.shutdown" >&2
        fail=1
    fi
    local server_code=0
    wait "$server_pid" || server_code=$?
    if [[ "$server_code" != "0" ]]; then
        echo "fault_smoke: server exited $server_code (want 0) after $log" >&2
        cat "$logdir/$log" >&2
        fail=1
    fi
}

# healthy_session LOG — a full hb session that must match the batch
# analyzer; proves the server survived the preceding fault.
healthy_session() {
    local log="$1"
    local code=0
    "$client" --connect "$addr" --analysis hb --index csst \
        --format binary --check-batch >"$logdir/$log" 2>&1 || code=$?
    if [[ "$code" != "1" ]] ||
        ! grep -q "service report matches the batch analyzer" "$logdir/$log"; then
        echo "fault_smoke: healthy session $log exited $code or mismatched" >&2
        cat "$logdir/$log" >&2
        fail=1
    fi
}

# --- Scenario 1: witness-worker panic --------------------------------
# The injected panic kills one witness worker of a race session; the
# panicked chunk must be re-checked sequentially, so the report is
# still byte-identical to the batch analyzer, while a concurrent
# session and the server itself are unaffected.
echo "fault_smoke: scenario witness-panic"
start_server panic.serve --faults panic-witness=0@1
code=0
"$client" --connect "$addr" --analysis race --index csst --shards 2 \
    --format binary --check-batch >"$logdir/panic.client" 2>&1 &
victim_pid=$!
healthy_session panic.healthy
wait "$victim_pid" || code=$?
if [[ "$code" != "1" ]] ||
    ! grep -q "service report matches the batch analyzer" "$logdir/panic.client"; then
    echo "fault_smoke: race session exited $code or mismatched batch" >&2
    cat "$logdir/panic.client" >&2
    fail=1
fi
if ! grep -q "injected fault: witness worker 0 panic" "$logdir/panic.serve"; then
    echo "fault_smoke: the injected witness panic never fired" >&2
    cat "$logdir/panic.serve" >&2
    fail=1
fi
stop_server panic.serve

# --- Scenario 2: corrupted EVENTS frame ------------------------------
# Frame corruption must surface as a structured `decode:` ERROR for
# that session only — never a panic, never a wedged server.
echo "fault_smoke: scenario corrupt-frame"
start_server corrupt.serve --faults corrupt-events=1
code=0
"$client" --connect "$addr" --analysis hb --format binary \
    >"$logdir/corrupt.client" 2>&1 || code=$?
if [[ "$code" != "2" ]] || ! grep -q "decode:" "$logdir/corrupt.client"; then
    echo "fault_smoke: corrupted session exited $code (want 2 with decode: error)" >&2
    cat "$logdir/corrupt.client" >&2
    fail=1
fi
healthy_session corrupt.healthy
stop_server corrupt.serve

# --- Scenario 3: slow client vs idle timeout -------------------------
# A client that stalls past the idle deadline is cut off with a typed
# `deadline:` ERROR; the server moves on.
echo "fault_smoke: scenario slow-client"
start_server slow.serve --idle-timeout-ms 300
code=0
"$client" --connect "$addr" --analysis hb --format binary \
    --stall-ms 1500 >"$logdir/slow.client" 2>&1 || code=$?
if [[ "$code" != "2" ]]; then
    echo "fault_smoke: stalled session exited $code (want 2)" >&2
    cat "$logdir/slow.client" >&2
    fail=1
fi
if ! grep -Eq "deadline|pipe|reset|closed" "$logdir/slow.client"; then
    echo "fault_smoke: stalled session died without a recognizable error" >&2
    cat "$logdir/slow.client" >&2
    fail=1
fi
healthy_session slow.healthy
stop_server slow.serve

# --- Scenario 4: unclean mid-stream disconnect -----------------------
# A client that vanishes after 50 events (no FINISH) must not disturb
# the server or subsequent sessions.
echo "fault_smoke: scenario mid-stream-disconnect"
start_server vanish.serve
code=0
"$client" --connect "$addr" --analysis hb --format binary \
    --disconnect-after 50 >"$logdir/vanish.client" 2>&1 || code=$?
if [[ "$code" != "0" ]] ||
    ! grep -q "disconnecting uncleanly" "$logdir/vanish.client"; then
    echo "fault_smoke: disconnecting client exited $code (want 0)" >&2
    cat "$logdir/vanish.client" >&2
    fail=1
fi
healthy_session vanish.healthy
stop_server vanish.serve

# --- Scenario 5: hostile thread ids ----------------------------------
# Frames naming more threads than the indexes can address used to
# abort the process on a huge allocation: a text frame on thread
# t16000, and a RAPID frame with 70,000 distinct thread names. Each
# must get a structured `decode:` ERROR. The raw frames are written
# here because csst-client validates its input before sending.
echo "fault_smoke: scenario hostile-threads"
start_server hostile.serve
if ! python3 - "$addr" >"$logdir/hostile.client" 2>&1 <<'PY'
import socket
import struct
import sys

T_HELLO, T_EVENTS, T_ERROR = 0x01, 0x02, 0x8F
host, port = sys.argv[1].removeprefix("tcp:").rsplit(":", 1)


def send(sock, tag, payload):
    sock.sendall(struct.pack("<I", 1 + len(payload)) + bytes([tag]) + payload)


def recv(sock):
    def exact(n):
        buf = b""
        while len(buf) < n:
            chunk = sock.recv(n - len(buf))
            if not chunk:
                raise SystemExit("connection closed mid-frame")
            buf += chunk
        return buf

    (length,) = struct.unpack("<I", exact(4))
    body = exact(length)
    return body[0], body[1:]


rapid = "".join(f"T{i}|w(V0)\n" for i in range(70_000))
for fmt, frame in [("text", "t16000 w x0 1\nt0 r x0 1\n"), ("rapid", rapid)]:
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        send(sock, T_HELLO, f"analysis=hb index=csst format={fmt}".encode())
        recv(sock)  # OK
        send(sock, T_EVENTS, frame.encode())
        tag, payload = recv(sock)
        msg = payload.decode()
        print(f"{fmt}: {msg}")
        if tag != T_ERROR or not msg.startswith("decode:"):
            raise SystemExit(f"{fmt} frame: want a decode: ERROR, got {msg!r}")
PY
then
    echo "fault_smoke: hostile frames did not get decode: errors" >&2
    cat "$logdir/hostile.client" >&2
    fail=1
fi
healthy_session hostile.healthy
stop_server hostile.serve

if [[ "$fail" != "0" ]]; then
    for f in "$logdir"/*; do
        echo "--- $f" >&2
        cat "$f" >&2
    done
    echo "fault_smoke FAILED" >&2
    exit 1
fi
echo "fault_smoke OK: witness-panic, corrupt-frame, slow-client, mid-stream-disconnect, hostile-threads all contained"
