"""Known-good outputs the benchmark checks every run against.

Star graph layouts (base size 3) are deterministic at every thread, worker
and SIMD setting, so each size has one area, wire length and canonical
wire fingerprint; `optimized_*` is the `--passes compact,refine` build.
The serve keys' areas are the daemon's `measure` replies.
"""

STAR = {
    5: dict(area=14214, wire_length=10000, max_wire_length=202,
            fingerprint=12414666884178043456,
            optimized_area=13905, optimized_wire_length=9674, optimized_max_wire_length=183),
    6: dict(area=280200, wire_length=246792, max_wire_length=981,
            fingerprint=111030250435316279,
            optimized_area=261612, optimized_wire_length=233396, optimized_max_wire_length=910),
    7: dict(area=9757664, wire_length=9096836, max_wire_length=5307,
            fingerprint=4687073731679165741,
            optimized_area=9081252, optimized_wire_length=8660268, optimized_max_wire_length=5046),
    8: dict(area=459069171, wire_length=473205734, max_wire_length=39380,
            fingerprint=12947711997305159819,
            optimized_area=436955160, optimized_wire_length=456907154,
            optimized_max_wire_length=38118),
    9: dict(area=28873148864, wire_length=32414797530, max_wire_length=310758,
            fingerprint=625569621785058892,
            optimized_area=27825962692, optimized_wire_length=31605753908,
            optimized_max_wire_length=306045),
}

# serve-mix: the hot key and the rotation, each with its `measure` area.
HOT = ({"family": "star", "n": 7, "passes": "compact,refine"}, 9081252)
ROTATION = [
    ({"family": "star", "n": 7}, 9757664),
    ({"family": "star", "n": 7, "passes": "compact"}, 9719478),
    ({"family": "star", "n": 7, "passes": "refine"}, 9129452),
    ({"family": "star-compact", "n": 7}, 10689894),
    ({"family": "pancake", "n": 7}, 11366645),
    ({"family": "bubble-sort", "n": 7}, 7759472),
    ({"family": "hcn", "n": 6}, 6384675),
    ({"family": "hypercube", "n": 12}, 11943936),
]


def star_n_nodes(n):
    f = 1
    for k in range(2, n + 1):
        f *= k
    return f


def area_ratio(area, n):
    """Area over the paper's leading term N^2/16, N = n!."""
    return area / (star_n_nodes(n) ** 2 / 16.0)
