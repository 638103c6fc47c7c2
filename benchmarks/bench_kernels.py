"""Benchmark the compiled sampling kernels against the numpy fallback.

Times sample_groups (counter-based categorical draws) and sample_keys
(drawing and keying in one pass, counting the keys in a table of
key_cells(k, d) = (k+1)^(d-1) cells, the one tally-key definition's)
on identical inputs, checks the outputs are bit-identical, and reports
per-backend times per group, the best and the median of the repeats,
and the throughput at the best.  Beside each sample_groups time it prints
the scratch of one call: the peak that tracemalloc traces, which sees
numpy's allocations but not the compiled kernel's C buffers, less the
output.  group_keys (per-group tally encoding) has one
implementation, the numpy one, and is timed once.  sample_keys must
equal the bincount of group_keys(sample_groups(...)).  It also checks
the block contract each backend must keep for sampling.draw_tally: two
start= blocks give the same rows and table as one call.  Both numpy
samplers draw DRAW_BLOCK groups at a time within a call, so a run of
more than two DRAW_BLOCKs (150000 groups, say) crosses a block edge in
each one-call path as well as in its two-block calls.

Usage:
    python3 benchmarks/bench_kernels.py --n-groups 500000 --group-size 5 --d 3
"""
import argparse
import statistics
import time
import tracemalloc

import numpy as np

from specmix import _kernels_np
from specmix.sampling import DRAW_BLOCK

try:
    from specmix import _kernels

    HAVE_COMPILED = True
except ImportError:
    HAVE_COMPILED = False


def timed(repeats, fn, *args):
    """The best and median seconds of repeats calls, and the last output."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return min(times), statistics.median(times), out


def traced_scratch(fn, *args):
    """The MiB that tracemalloc traces at the peak of one call, less the output's."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - out.nbytes) / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-groups", type=int, default=200_000)
    parser.add_argument("--group-size", type=int, default=5)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    weights = rng.dirichlet(np.ones(3))
    components = rng.dirichlet(np.ones(args.d), size=3)
    thresholds = _kernels_np.draw_thresholds(np.cumsum(weights), np.cumsum(components, axis=1))
    draws = args.n_groups * args.group_size

    backends = [("numpy", _kernels_np)]
    if HAVE_COMPILED:
        backends.insert(0, ("compiled", _kernels))
    else:
        print("compiled extension not importable; timing the fallback only")

    cells = _kernels_np.key_cells(args.group_size, args.d)
    # draw_tally counts in a table only up to DRAW_BLOCK cells
    use_table = cells <= DRAW_BLOCK
    if not use_table:
        print(f"(k+1)^(d-1) = {cells} cells is over {DRAW_BLOCK}: sample_keys not timed")

    def count_keys(impl, *call, start=0):
        return impl.sample_keys(*call, np.zeros(cells, dtype=np.int64), start=start)

    sample_out = {}
    call = (args.seed, args.n_groups, args.group_size, thresholds)

    def report(name, kernel, times, count, unit, extra=""):
        """A kernel's best and median of timed(...), and its rate of count units per call at best."""
        best, median = (t / args.n_groups * 1e9 for t in times)
        print(f"  {name:9s} {kernel:13s} best {best:7.1f} median {median:7.1f} ns/group "
              f"({count / times[0] / 1e6:6.1f} M {unit}/s at best){extra}")

    print(f"{args.n_groups} groups x {args.group_size} draws, d={args.d}, {args.repeats} repeats")
    *t_keys, _ = timed(args.repeats, _kernels_np.group_keys, _kernels_np.sample_groups(*call), args.d)
    report("any", "group_keys", t_keys, args.n_groups, "groups")
    for name, impl in backends:
        *t_sample, groups = timed(args.repeats, impl.sample_groups, *call)
        sample_out[name] = groups
        keys = _kernels_np.group_keys(groups, args.d)
        scratch = traced_scratch(impl.sample_groups, *call)
        report(name, "sample_groups", t_sample, draws, "draws", f", scratch {scratch:.2f} MiB traced")
        if use_table:
            *t_table, table = timed(args.repeats, count_keys, impl, *call)
            report(name, "sample_keys", t_table, args.n_groups, "groups")
            if not np.array_equal(table, np.bincount(keys, minlength=cells)):
                print(f"MISMATCH: {name} sample_keys differs from the bincount of group_keys(sample_groups(...))")
                return 1

        cut = args.n_groups // 3
        head = (args.seed, cut, args.group_size, thresholds)
        tail = (args.seed, args.n_groups - cut, args.group_size, thresholds)
        blocks = np.concatenate([impl.sample_groups(*head), impl.sample_groups(*tail, start=cut)])
        same = np.array_equal(blocks, groups)
        if use_table:
            table = impl.sample_keys(*tail, count_keys(impl, *head), start=cut)
            same = same and np.array_equal(table, np.bincount(keys, minlength=cells))
        if not same:
            print(f"MISMATCH: {name} output drawn in two blocks differs from one call")
            return 1

    if len(backends) == 2:
        if not np.array_equal(sample_out["compiled"], sample_out["numpy"]):
            print("MISMATCH: backends disagree")
            return 1
        print("outputs bit-identical across backends")
    if use_table:
        print("sample_keys equals the bincount of group_keys(sample_groups(...)) on every backend")
    print("every backend gives the same output in two blocks as in one call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
