#!/usr/bin/env python3
"""Oracle check of `susc` on generated hotel repositories.

Usage: check_generated_hotel.py SUSC_BINARY PERFBENCH_DIR

Generates the Fig. 1-2 hotel scaled to 24 hotels and 6 clients with
perfbench/gen.py (imported read-only: no bytecode is written next to it)
at seeds 1 and 777, and asserts for each:
  1. `susc FILE` reports exactly the valid plans the generator computed
     independently (gen.verify_mismatches), with the matching exit code;
  2. `susc --jobs 4 FILE` prints the same bytes and exit code as
     `susc --jobs 1 FILE`.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 777)


def fail(msg):
    print(f"check_generated_hotel: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def main():
    if len(sys.argv) != 3:
        fail("usage: check_generated_hotel.py SUSC_BINARY PERFBENCH_DIR")
    susc, perfbench = sys.argv[1], sys.argv[2]
    sys.dont_write_bytecode = True
    sys.path.insert(0, perfbench)
    import gen

    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            sus = str(Path(tmp) / f"hotel{seed}.sus")
            answer = gen.gen_hotel(sus, seed, hotels=24, clients=6)
            want = 0 if all(answer.valid.values()) else 1
            serial = run([susc, "--jobs", "1", sus])
            if serial.returncode != want:
                fail(f"seed {seed}: susc exited {serial.returncode}, "
                     f"expected {want}\n{serial.stderr}")
            wrong = gen.verify_mismatches(serial.stdout, answer)
            if wrong:
                fail(f"seed {seed}: wrong valid plans for {sorted(wrong)}")
            plain = run([susc, sus])
            if (plain.stdout, plain.returncode) != (serial.stdout,
                                                    serial.returncode):
                fail(f"seed {seed}: susc FILE differs from --jobs 1")
            parallel = run([susc, "--jobs", "4", sus])
            if (parallel.stdout, parallel.returncode) != (serial.stdout,
                                                          serial.returncode):
                fail(f"seed {seed}: --jobs 4 differs from --jobs 1")
    print(f"check_generated_hotel: OK (seeds {', '.join(map(str, SEEDS))})")


if __name__ == "__main__":
    main()
