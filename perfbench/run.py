#!/usr/bin/env python3
"""Build and run the Count2Multiply host benchmark.

    python3 perfbench/run.py --workload <serve_sweep|kernel_cold|bit_accurate> \\
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built against the repository's crates by
path; it is built in release mode into $CARGO_TARGET_DIR (default
perfbench/target) and then run with the same arguments. Build output
goes to standard error; the benchmark's last line of standard output is
its JSON result. A traced run (--trace 1) also writes its spans next to
the binary. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--locked", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"] \
            and "--spans-out" not in args:
        args += ["--spans-out", os.path.join(target, "release", "perfbench-spans.json")]
    sys.stdout.flush()
    return subprocess.run([os.path.join(target, "release", "perfbench")] + args,
                          check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
