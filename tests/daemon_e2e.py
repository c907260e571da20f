#!/usr/bin/env python3
"""End-to-end test for the resident verification daemon (susd).

Drives the shipped binaries the way a user would and asserts the PR's
headline contracts:

  1. Warm restart equivalence: a one-shot verify that loads a snapshot
     must print byte-for-byte the output of the run that saved it.
  2. Version/corruption rejection: a snapshot with a bumped format
     version, a truncated tail, or a flipped bit must be rejected with
     exit 2 and a one-line diagnostic (never a partial load or a crash).
  3. Concurrent serving: N threads x M `susc --connect` verify requests
     against one daemon must all return identical bytes and exit codes,
     and a shutdown request must stop the daemon with exit 0.
  4. One engine: on every given file, `susc FILE`, `susd --warm FILE` and
     `susc --connect SOCK verify` print identical bytes and exit with the
     same code.
  5. Idle peers do not starve the daemon: with `--workers 2`, two peers
     that connect and stay silent are cut off at the request-line
     deadline, so a ping and a verify sent behind them are answered
     within that deadline plus slack; a peer that sends its request line
     in slow pieces inside the deadline is still served.

Checks 1-3 and 5 run on the first file; check 4 runs on all of them.

Usage: daemon_e2e.py <susd> <susc> <file.sus>...
"""

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time

# The version field sits after the 8-byte magic (DESIGN.md #13).
VERSION_OFFSET = 8

# RequestLineDeadlineMs in src/daemon/Protocol.h, and the slack allowed on
# top of it for scheduling and the verify itself.
REQUEST_LINE_DEADLINE_S = 2.0
DEADLINE_SLACK_S = 3.0


def run(argv, timeout=120, **kwargs):
    return subprocess.run(argv, capture_output=True, text=False,
                          timeout=timeout, **kwargs)


def fail(msg):
    print("daemon_e2e: FAIL:", msg)
    sys.exit(1)


def expect_rejected(susd, sus_file, snap_path, what, needle=b""):
    r = run([susd, "--snapshot", snap_path, "--warm", sus_file])
    if r.returncode != 2:
        fail("%s: expected exit 2, got %d\nstderr: %s"
             % (what, r.returncode, r.stderr.decode(errors="replace")))
    if b"snapshot rejected" not in r.stderr:
        fail("%s: no rejection diagnostic\nstderr: %s"
             % (what, r.stderr.decode(errors="replace")))
    if needle and needle not in r.stderr:
        fail("%s: diagnostic does not mention %r\nstderr: %s"
             % (what, needle, r.stderr.decode(errors="replace")))


def check_snapshot_restart(susd, sus_file, tmp):
    snap = os.path.join(tmp, "cache.snap")
    cold = run([susd, "--warm", "--save-snapshot", snap, sus_file])
    if cold.returncode != 0:
        fail("cold warm-up failed: %s" % cold.stderr.decode(errors="replace"))
    warm = run([susd, "--snapshot", snap, "--warm", sus_file])
    if warm.returncode != 0:
        fail("warm restart failed: %s" % warm.stderr.decode(errors="replace"))
    if warm.stdout != cold.stdout:
        fail("warm restart output differs from the cold run\n"
             "cold %d bytes, warm %d bytes" %
             (len(cold.stdout), len(warm.stdout)))
    if b"snapshot loaded" not in warm.stderr:
        fail("warm restart did not report the loaded snapshot")
    print("daemon_e2e: warm restart is byte-identical")

    blob = open(snap, "rb").read()

    bumped = bytearray(blob)
    bumped[VERSION_OFFSET] += 1
    bumped_path = os.path.join(tmp, "bumped.snap")
    open(bumped_path, "wb").write(bytes(bumped))
    expect_rejected(susd, sus_file, bumped_path,
                    "version-bumped snapshot", b"version")

    trunc_path = os.path.join(tmp, "trunc.snap")
    open(trunc_path, "wb").write(blob[:len(blob) // 2])
    expect_rejected(susd, sus_file, trunc_path, "truncated snapshot")

    flipped = bytearray(blob)
    flipped[len(flipped) * 2 // 3] ^= 0x04
    flip_path = os.path.join(tmp, "flip.snap")
    open(flip_path, "wb").write(bytes(flipped))
    expect_rejected(susd, sus_file, flip_path, "bit-flipped snapshot")
    print("daemon_e2e: bad snapshots rejected with exit 2")


def wait_for_socket(path, proc, deadline_s=30):
    end = time.time() + deadline_s
    while time.time() < end:
        if proc.poll() is not None:
            fail("susd exited early with code %d" % proc.returncode)
        if os.path.exists(path):
            try:
                s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                s.connect(path)
                s.close()
                return
            except OSError:
                pass
        time.sleep(0.05)
    fail("susd socket %s never came up" % path)


def first_difference(a, b):
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return "line %d: %r vs %r" % (n, x, y)
    return "lengths %d vs %d" % (len(a), len(b))


def check_front_ends_agree(susd, susc, sus_file, tmp):
    one_shot = run([susc, sus_file])
    warm = run([susd, "--warm", sus_file])
    sock = os.path.join(tmp, "agree.sock")
    daemon = subprocess.Popen([susd, "--listen", sock, sus_file],
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    try:
        wait_for_socket(sock, daemon)
        served = run([susc, "--connect", sock, "verify"])
        run([susc, "--connect", sock, "shutdown"])
        if daemon.wait(timeout=30) != 0:
            fail("%s: daemon exit code %d after shutdown"
                 % (os.path.basename(sus_file), daemon.returncode))
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    name = os.path.basename(sus_file)
    for what, r in (("susd --warm", warm), ("susc --connect verify", served)):
        if r.returncode != one_shot.returncode:
            fail("%s: %s exits %d, susc exits %d"
                 % (name, what, r.returncode, one_shot.returncode))
        if r.stdout != one_shot.stdout:
            fail("%s: %s output differs from susc: %s"
                 % (name, what, first_difference(r.stdout, one_shot.stdout)))
    print("daemon_e2e: %s: susc, susd --warm and --connect verify agree "
          "byte for byte (exit %d)" % (name, one_shot.returncode))


def check_daemon(susd, susc, sus_file, tmp):
    sock = os.path.join(tmp, "susd.sock")
    daemon = subprocess.Popen(
        [susd, "--listen", sock, "--workers", "4", sus_file],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    try:
        wait_for_socket(sock, daemon)

        results = []
        lock = threading.Lock()

        def client(n):
            for _ in range(3):
                r = run([susc, "--connect", sock, "verify"])
                with lock:
                    results.append((r.returncode, r.stdout))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if len(results) != 12:
            fail("expected 12 client runs, got %d" % len(results))
        codes = {c for c, _ in results}
        bodies = {b for _, b in results}
        if codes != {0}:
            fail("verify exit codes disagree: %s" % codes)
        if len(bodies) != 1:
            fail("concurrent verify outputs are not identical")
        if b"== client" not in next(iter(bodies)):
            fail("verify output looks wrong: %r" % next(iter(bodies))[:80])
        print("daemon_e2e: 12 concurrent verifies, identical bytes")

        stats = run([susc, "--connect", sock, "stats"])
        if stats.returncode != 0 or b"cache:" not in stats.stdout:
            fail("stats verb failed: %s" % stats.stdout.decode(errors="replace"))

        bad = run([susc, "--connect", sock, "frobnicate"])
        if bad.returncode != 2:
            fail("unknown verb: expected exit 2, got %d" % bad.returncode)

        down = run([susc, "--connect", sock, "shutdown"])
        if down.returncode != 0:
            fail("shutdown request failed with %d" % down.returncode)
        code = daemon.wait(timeout=30)
        if code != 0:
            fail("daemon exit code %d after shutdown" % code)
        print("daemon_e2e: clean shutdown")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def read_all(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def check_idle_peers(susd, susc, sus_file, tmp):
    sock_path = os.path.join(tmp, "idle.sock")
    daemon = subprocess.Popen(
        [susd, "--listen", sock_path, "--workers", "2", sus_file],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    silent = []
    try:
        wait_for_socket(sock_path, daemon)
        expected = run([susc, sus_file])

        # Two silent peers take both workers.
        for _ in range(2):
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            s.settimeout(REQUEST_LINE_DEADLINE_S + DEADLINE_SLACK_S)
            s.connect(sock_path)
            silent.append(s)
        time.sleep(0.3)

        # A ping and a verify queue behind them.
        limit = REQUEST_LINE_DEADLINE_S + DEADLINE_SLACK_S
        answers = {}

        def ask(verb):
            try:
                answers[verb] = run([susc, "--connect", sock_path, verb],
                                    timeout=limit)
            except subprocess.TimeoutExpired:
                answers[verb] = None

        start = time.time()
        askers = [threading.Thread(target=ask, args=(verb,))
                  for verb in ("ping", "verify")]
        for t in askers:
            t.start()
        for t in askers:
            t.join()
        elapsed = time.time() - start
        for verb in ("ping", "verify"):
            if answers[verb] is None:
                fail("%s behind two silent peers was not answered within "
                     "%.1f s" % (verb, limit))
        if elapsed > limit:
            fail("ping and verify behind two silent peers took %.1f s "
                 "(limit %.1f s)" % (elapsed, limit))
        if answers["ping"].returncode != 0 or \
                answers["ping"].stdout != b"pong\n":
            fail("ping behind silent peers: exit %d, %r"
                 % (answers["ping"].returncode, answers["ping"].stdout))
        if answers["verify"].returncode != expected.returncode or \
                answers["verify"].stdout != expected.stdout:
            fail("verify behind silent peers differs from susc: %s"
                 % first_difference(answers["verify"].stdout,
                                    expected.stdout))

        # Each silent peer got an error response, then the connection
        # closed.
        for s in silent:
            reply = read_all(s)
            if not reply.startswith(b"sus/1 2 ") or b"within" not in reply:
                fail("silent peer got %r, expected a deadline error" % reply)
        print("daemon_e2e: two silent peers cut off at the deadline; ping "
              "and verify behind them answered in %.1f s" % elapsed)

        # A slow but live peer is served.
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(limit)
        s.connect(sock_path)
        pieces = [b"sus/", b"1 pi", b"ng\n"]
        pause = REQUEST_LINE_DEADLINE_S / (2 * len(pieces))
        for piece in pieces:
            s.sendall(piece)
            time.sleep(pause)
        reply = read_all(s)
        s.close()
        if reply != b"sus/1 0 5\npong\n":
            fail("slow peer got %r, expected a pong" % reply)
        print("daemon_e2e: a peer sending its line in pieces is served")

        run([susc, "--connect", sock_path, "shutdown"])
        if daemon.wait(timeout=30) != 0:
            fail("daemon exit code %d after shutdown" % daemon.returncode)
    finally:
        for s in silent:
            s.close()
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()


def main():
    if len(sys.argv) < 4:
        fail("usage: daemon_e2e.py <susd> <susc> <file.sus>...")
    susd, susc = sys.argv[1:3]
    sus_files = sys.argv[3:]
    # AF_UNIX sun_path is ~108 bytes; keep the socket under /tmp, not the
    # (potentially deep) build tree.
    with tempfile.TemporaryDirectory(prefix="susd-e2e-", dir="/tmp") as tmp:
        check_snapshot_restart(susd, sus_files[0], tmp)
        check_daemon(susd, susc, sus_files[0], tmp)
        check_idle_peers(susd, susc, sus_files[0], tmp)
        for sus_file in sus_files:
            check_front_ends_agree(susd, susc, sus_file, tmp)
    print("daemon_e2e: all checks passed")


if __name__ == "__main__":
    main()
