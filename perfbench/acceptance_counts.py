"""Wall time and rhs evaluations of acceptance criteria 2 to 8, run once each.

    python3 perfbench/acceptance_counts.py [N ...]

These are reference figures for the README, not workloads: criterion 7
alone runs for minutes. Every vector field the criteria integrate gets a
call counter on its rhs; nothing else changes.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mirrorflow import acceptance  # noqa: E402


def main(numbers):
    evals = [0]
    integrate = acceptance.integrate

    def counted_integrate(f, *args, **kwargs):
        def counted(t, y):
            evals[0] += 1
            return f(t, y)

        return integrate(counted, *args, **kwargs)

    acceptance.integrate = counted_integrate
    for n in numbers:
        evals[0] = 0
        start = perf_counter()
        result = getattr(acceptance, f"criterion_{n}")()
        wall = perf_counter() - start
        status = "pass" if result.passed else "FAIL"
        print(f"criterion {n}: {status}, {wall:.1f} s, {evals[0]} rhs evaluations", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or range(2, 9))
