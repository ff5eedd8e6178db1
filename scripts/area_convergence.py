#!/usr/bin/env python3
"""Grid convergence study: traced area against the exact value.

The enclosed area of the curve is exactly half the squared focal
distance. The shoelace area of the refined contour polygons errs by
O(h^2) in the cell size h, so its error ratio between grids that double
is about 4; adding each chord's curvature segment (contour_area given
the curve) leaves O(h^4), a ratio of about 16. Exits 1 when a corrected
ratio from grid 128 to 1024 lies outside [12, 20].
"""

import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from lemniscate import (
    BernoulliConfig,
    Point,
    TraceWindow,
    bernoulli_area,
    contour_area,
    trace,
)


def main():
    config = BernoulliConfig(Point(-1.0, 0.0), Point(1.0, 0.0))
    exact = bernoulli_area(config)
    print(f"exact area: {exact}")
    print(
        f"{'grid':>6} {'contours':>8} {'shoelace area':>18} {'rel err':>12} {'ratio':>7} "
        f"{'corrected area':>18} {'rel err':>12} {'ratio':>7} {'time':>7}"
    )
    previous = (math.nan, math.nan)
    off = []
    for grid in (64, 128, 256, 512, 1024, 2048):
        started = time.perf_counter()
        contours = trace(config.lemniscate, TraceWindow(-1.6, 1.6, -0.8, 0.8, grid, grid))
        areas = (sum(contour_area(c) for c in contours), sum(contour_area(c, config.lemniscate) for c in contours))
        errs = [abs(a - exact) / exact for a in areas]
        ratios = [p / e for p, e in zip(previous, errs)]
        previous = errs
        if 128 < grid <= 1024 and not 12.0 <= ratios[1] <= 20.0:
            off.append(grid)
        print(
            f"{grid:>6} {len(contours):>8} {areas[0]:>18.12f} {errs[0]:>12.3e} {ratios[0]:>7.2f} "
            f"{areas[1]:>18.14f} {errs[1]:>12.3e} {ratios[1]:>7.2f} {time.perf_counter() - started:>6.2f}s"
        )
    if off:
        print(f"corrected error ratio outside [12, 20] at grid {', '.join(map(str, off))}: not fourth order")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
