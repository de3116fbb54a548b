"""Output equivalence of two source trees on the benchmark's workloads.

Usage (any directory; standard library only in this process):

    python3 tools/outputs.py PARENT_TREE CHANGE_TREE

For each tree it starts one subprocess with that tree's ``src`` and
``bench`` on the path.  The subprocess runs every operation of the
issuer_eod, recovery_scan and cds_hedge workloads for seeds 11 and 12
over cycles 0-1, with the workload's own checks.  It flattens each
output into records keyed ``workload/seed/issuer/field...``.  It also records, under
``library``, the library's measures on every curve an operation returns (the
fitted spline curves and the bootstrapped CDS curves): CDS par spreads, rpv01,
upfronts, par coupons and forward CDS spreads at ``TENORS``, and per bond the
fitted P-spread, excess spread, continuous-time price and forward prices at a
quarter, half and three quarters of its life.  A call that raises records
its error.  Records are either floats or
discrete values: labels, warnings, check problems, and the floats named in
``DISCRETE`` (eta picks, implied rates, hedge-leg maturities, tenors).

The report gives each tree's SHA-256 over its records, with floats written
by ``float.hex``; equal hashes mean bit-identical outputs.  It then gives
the worst absolute and relative difference per output family
(``workload/field``) and lists every discrete difference.  The exit status
is 0 when every discrete record is identical and every float is within
``TOL`` (absolute) of the parent, else 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

WORKLOADS = ("issuer_eod", "recovery_scan", "cds_hedge")
SEEDS, CYCLES, TOL = (11, 12), 2, 1e-11
# Names of each workload's operation result, element by element.
OUTPUT_NAMES = {
    "issuer_eod": ("fit", "report", "fitted_price", "das"),
    "recovery_scan": ("rate", "fit", "warnings"),
    "cds_hedge": ("curve", "report", "bonds"),
}
BOND_NAMES = ("coarse_hedge", "spot_hedge", "basis_spread", "approx_basis")
TENORS = (1.0, 3.0, 5.0, 10.0)  # maturities of the per-curve library calls
# Float fields whose values are choices, not measurements: any change is listed.
DISCRETE = {"eta", "rate", "maturity", "tenor", "horizon", "recovery", "ccp_coupons"}


def to_tree(value):
    """A JSON-like tree of an output: dataclasses by field, curves by ``to_dict``."""
    if hasattr(value, "__dataclass_fields__"):
        return {name: to_tree(getattr(value, name)) for name in value.__dataclass_fields__}
    if hasattr(value, "to_dict"):
        return to_tree(value.to_dict())
    if isinstance(value, dict):
        return {str(k): to_tree(v) for k, v in value.items()}
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_tree(v) for v in value]
    return value


def flatten(tree, prefix: str, out: dict) -> dict:
    """Leaves of ``tree`` as {key: value}, keys joined by '/'."""
    if isinstance(tree, dict):
        for name, value in tree.items():
            flatten(value, f"{prefix}/{name}", out)
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            flatten(value, f"{prefix}/{i}", out)
        if not tree:
            out[prefix] = []
    else:
        out[prefix] = tree
    return out


def attempt(fn, *args):
    """``fn(*args)``, or the error it raises as text."""
    try:
        return fn(*args)
    except Exception as exc:  # recorded, so that a change in what raises is listed
        return f"{type(exc).__name__}: {exc}"


def library_calls(curve, base, recovery: float, bonds: list) -> dict:
    """The library's measures on ``curve``, per tenor of ``TENORS`` and per bond
    (spec, clean price), each by ``attempt``."""
    from creditcurves import hedging, measures, pricing

    freq = pricing.CDS_FREQ
    return {
        "cds_par_spread": [attempt(pricing.cds_par_spread, m, freq, base, curve, recovery)
                           for m in TENORS],
        "cds_par_spread_continuous": [
            attempt(pricing.cds_par_spread_continuous, m, freq, base, curve, recovery)
            for m in TENORS],
        "rpv01": [attempt(pricing.rpv01, m, freq, base, curve) for m in TENORS],
        "cds_upfront": [attempt(pricing.cds_upfront, pricing.CdsSpec(0.01, m, recovery=recovery),
                                base, curve) for m in TENORS],
        "par_coupon": [attempt(measures.par_coupon, m, 2, base, curve, recovery)
                       for m in TENORS],
        "fwd_cds_spread": [attempt(measures.fwd_cds_spread, t1, t2, base, curve, recovery)
                           for t1, t2 in zip(TENORS, TENORS[1:])],
        "bonds": [{
            "fitted_p_spread": attempt(measures.fitted_p_spread, spec, base, curve, recovery),
            "excess_spread": attempt(measures.excess_spread, spec, price, base, curve, recovery),
            "bond_price_continuous": attempt(pricing.bond_price_continuous, spec, base, curve,
                                             recovery),
            "fwd_bond_price": [attempt(hedging.fwd_bond_price, spec, base, curve, recovery,
                                       f * spec.maturity) for f in (0.25, 0.5, 0.75)],
        } for spec, price in bonds],
    }


def collect() -> dict:
    """Every output of the workloads in this interpreter's tree, as flat records."""
    from creditcurves.calibration import FitConfig
    from workloads import WORKLOAD_CLASSES, _spec  # the bench/ of the tree under test

    records: dict = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            workload = WORKLOAD_CLASSES[name](seed, os.getcwd())
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                workload.prepare(CYCLES)
                issuers = {i.id: i for cycle in workload.universe.cycles.values() for i in cycle}
                for block in workload.prepared:
                    for op in block.ops:
                        out = op.run()
                        named = dict(zip(OUTPUT_NAMES[name], out))
                        issuer = issuers[op.issuer]
                        if name == "cds_hedge":
                            named["bonds"] = [dict(zip(BOND_NAMES, b)) for b in named["bonds"]]
                            curve, recovery = named["curve"], issuer.recovery
                        else:
                            curve = named["fit"].curve
                            recovery = named.get("rate", FitConfig().recovery)
                        named["problems"] = op.check(out)
                        named["library"] = library_calls(
                            curve, workload.base, recovery,
                            [(_spec(b), b.price) for b in issuer.bonds])
                        flatten(to_tree(named), f"{name}/{seed}/{op.issuer}", records)
            workload.close()
    return records


def is_discrete(key: str, value) -> bool:
    named = [part for part in key.split("/")[3:] if not part.isdigit()]
    return not isinstance(value, float) or bool(DISCRETE & set(named))


def family(key: str) -> str:
    parts = key.split("/")
    return parts[0] + "/" + ".".join(p for p in parts[3:] if not p.isdigit())


def digest(records: dict) -> str:
    """SHA-256 over the sorted records, floats by ``float.hex``."""
    sha = hashlib.sha256()
    for key in sorted(records):
        value = records[key]
        text = value.hex() if isinstance(value, float) else json.dumps(value)
        sha.update(f"{key}={text}\n".encode())
    return sha.hexdigest()


def compare(parent: dict, change: dict, tol: float) -> tuple[list[str], bool]:
    """Report lines, and whether the change keeps the parent's outputs within ``tol``."""
    hashes = digest(parent), digest(change)
    lines = [f"sha256: parent {hashes[0]}", f"sha256: change {hashes[1]}",
             "bit-identical" if hashes[0] == hashes[1] else "not bit-identical",
             f"records: parent {len(parent)}, change {len(change)}"]
    worst: dict[str, list] = {}  # family -> [abs, rel, differing, total]
    discrete = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            side = "parent" if key in parent else "change"
            discrete.append(f"  {key}: only in {side}")
            continue
        a, b = parent[key], change[key]
        if is_discrete(key, a) or is_discrete(key, b):
            if json.dumps(a) != json.dumps(b):
                discrete.append(f"  {key}: {a!r} -> {b!r}")
            continue
        entry = worst.setdefault(family(key), [0.0, 0.0, 0, 0])
        entry[3] += 1
        if a.hex() == b.hex():
            continue
        diff = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
        entry[0] = max(entry[0], diff)
        entry[1] = max(entry[1], diff / abs(a) if a else math.inf)
        entry[2] += 1
    lines.append("floats per family: worst abs, worst rel, differing/total")
    for name, (abs_diff, rel_diff, differing, total) in sorted(worst.items()):
        lines.append(f"  {name}: {abs_diff:.3g} {rel_diff:.3g} {differing}/{total}")
    lines.append(f"discrete differences: {len(discrete)}")
    lines += discrete
    ok = not discrete and all(entry[0] <= tol for entry in worst.values())
    lines.append(f"verdict: {'same outputs' if ok else 'outputs differ'} (tol {tol:g})")
    return lines, ok


def run_tree(tree: str) -> dict:
    """Records of ``tree``, collected in a subprocess on its own sources."""
    tree = os.path.abspath(tree)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(tree, "src"), os.path.join(tree, "bench")]))
    cmd = [sys.executable, os.path.abspath(__file__), "--collect"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: collection exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(collect(), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("need PARENT_TREE and CHANGE_TREE")
    parent, change = (run_tree(tree) for tree in args.trees)
    lines, ok = compare(parent, change, TOL)
    print(f"seeds {list(SEEDS)}, cycles 0-{CYCLES - 1}, workloads {', '.join(WORKLOADS)}")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
