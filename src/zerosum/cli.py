"""Command-line front door.

Subcommands: group info | count | davenport | extremal | verify |
conjecture | construct.  Every command emits a report with the fields
command, group, parameters, result, status, provenance; --json switches
from the human rendering to machine output.  Reports are deterministic
given the flags (plus --seed for randomized modes); --no-timestamp drops
the one nondeterministic field.

Exit codes: 0 for pass/partial, 1 for a failed check, 2 for usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .groups import (
    Group,
    all_subgroups,
    d_star,
    elem_neg,
    parse_group,
)
from .sequences import (
    format_element,
    format_sequence,
    parse_element,
    parse_sequence,
    sequence,
    seq_div,
    seq_sum,
    _seq_from_sorted,
)
from .counting import (
    ExtremalSet,
    _below_bound,
    _extremal_members,
    _one_and_all,
    count_all,
    extremal_set,
    limb_layout,
    subsums,
    sweep_counts,
    transform,
)
from .davenport import davenport, DAVENPORT_CAP
from .structure import (
    check_corollary_decomposition,
    check_cyclic_characterization,
    check_es_chain,
    check_odd_group_structure,
    condition_profile,
    construct_unbounded_family,
    max_subgroups_in_extremal_set,
)
from .search import (
    DEFAULT_BUDGET,
    conjecture1_harness,
    conjecture2_harness,
    construct_extremal,
    find_extremals,
    random_search,
    splitmix64,
)
from .reports import VerificationReport

THEOREMS = (
    "lower-bound",
    "transform",
    "one-and-all",
    "es-chain",
    "subgroup-es",
    "cn",
    "odd-structure",
    "corollary",
    "equivalences",
)


@dataclass
class Report:
    command: str
    group: str | None
    parameters: dict
    result: object
    status: str  # "pass" | "fail" | "partial" | "error"
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "group": self.group,
            "parameters": self.parameters,
            "result": self.result,
            "status": self.status,
            "provenance": self.provenance,
        }


def _plain(x):
    """Fold report payloads down to JSON-ready primitives."""
    if isinstance(x, VerificationReport):
        return {
            "check": x.check,
            "status": x.status,
            "details": _plain(x.details),
            "witnesses": [format_sequence(w) for w in x.witnesses],
        }
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(_plain(v) for v in x)
    if isinstance(x, Group):
        return x.spec()
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return str(x)


def _render(x, indent: int = 0, out=None) -> list[str]:
    lines = out if out is not None else []
    pad = "  " * indent
    if isinstance(x, dict):
        for k, v in x.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                _render(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(x, list):
        for v in x:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                _render(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(x)}")
    return lines


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list) and not v:
        return "[]"
    if isinstance(v, dict) and not v:
        return "{}"
    return str(v)


def _emit(report: Report, args) -> int:
    payload = report.to_dict()
    payload["parameters"] = _plain(payload["parameters"])
    payload["result"] = _plain(payload["result"])
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(_render(payload)))
    if report.status in ("pass", "partial"):
        return 0
    if report.status == "fail":
        return 1
    return 2


def _provenance(args, **extra) -> dict:
    prov = {"tool": "zerosum", "version": __version__}
    caps = {}
    for name in ("max_len", "budget", "davenport_cap", "trials", "family_k"):
        if hasattr(args, name) and getattr(args, name) is not None:
            caps[name.replace("_", "-")] = getattr(args, name)
    if caps:
        prov["caps"] = caps
    if hasattr(args, "seed") and args.seed is not None:
        prov["seed"] = args.seed
    prov.update(extra)
    if not args.no_timestamp:
        prov["timestamp"] = datetime.now(timezone.utc).isoformat()
    return prov


def _status_of(rep: VerificationReport, truncated: bool = False) -> str:
    if rep.failed:
        return "fail"
    return "partial" if truncated else "pass"


def _davenport_value(G: Group, args) -> int:
    return davenport(G, cap=args.davenport_cap).value


# --- commands ---------------------------------------------------------------


def cmd_group_info(args) -> Report:
    G = parse_group(args.spec)
    result = {
        "canonical": G.spec(),
        "invariants": list(G.invariants),
        "order": G.order,
        "rank": G.rank,
        "d_star": d_star(G),
    }
    if G.order <= 64:
        result["subgroup_count"] = len(all_subgroups(G))
    return Report("group info", G.spec(), {"spec": args.spec}, result,
                  "pass", _provenance(args))


def cmd_count(args) -> Report:
    G = parse_group(args.group)
    S = parse_sequence(G, args.seq)
    cv = count_all(S)
    result = {
        "sequence": format_sequence(S),
        "length": len(S),
        "sum": format_element(G, seq_sum(S)),
    }
    if args.g is not None:
        g = parse_element(G, args.g)
        result["g"] = format_element(G, g)
        result["count"] = cv[g]
    else:
        result["counts"] = {format_element(G, g): c for g, c in cv.as_dict().items()}
    dav = davenport(G, cap=args.davenport_cap)
    if len(S) >= dav.value - 1:
        members = extremal_set(S, dav.value).members
        result["extremal_set"] = {
            "davenport": dav.value,
            "exponent": len(S) - dav.value + 1,
            "members": sorted(format_element(G, g) for g in members),
        }
    params = {"group": args.group, "seq": args.seq}
    if args.g is not None:
        params["g"] = args.g
    return Report("count", G.spec(), params, result, "pass", _provenance(args))


def cmd_davenport(args) -> Report:
    G = parse_group(args.group)
    res = davenport(G, method=args.method, cap=args.davenport_cap)
    result = {
        "value": res.value,
        "method": res.method,
        "witness": format_sequence(res.witness),
        "witness_length": len(res.witness),
    }
    return Report("davenport", G.spec(),
                  {"group": args.group, "method": args.method},
                  result, "pass", _provenance(args))


def cmd_extremal(args) -> Report:
    G = parse_group(args.group)
    if args.random:
        catalog = random_search(G, args.max_len, args.trials, args.seed)
    else:
        catalog = find_extremals(G, args.max_len, args.budget)
    result = {
        "davenport": catalog.D,
        "length_cap": catalog.length_cap,
        "exhaustive": catalog.exhaustive,
        "count": len(catalog.entries),
        "max_length_found": catalog.max_length_found,
        "entries": [
            {
                "sequence": format_sequence(S),
                "length": len(S),
                "extremal_members": sorted(format_element(G, g) for g in E.members),
            }
            for S, E in catalog.entries
        ],
    }
    status = "pass" if catalog.exhaustive or args.random else "partial"
    return Report("extremal", G.spec(),
                  {"group": args.group, "max_len": args.max_len,
                   "random": args.random},
                  result, status, _provenance(args))


def cmd_construct(args) -> Report:
    G = parse_group(args.group)
    g = parse_element(G, args.g)
    S = construct_extremal(G, g, args.m, budget=args.budget)
    D = _davenport_value(G, args)
    result = {
        "sequence": format_sequence(S),
        "length": len(S),
        "g": format_element(G, g),
        "count_at_g": count_all(S)[g],
        "exponent": args.m - D + 1,
    }
    return Report("construct", G.spec(),
                  {"group": args.group, "g": args.g, "m": args.m},
                  result, "pass", _provenance(args))


def cmd_conjecture(args) -> Report:
    G = parse_group(args.group)
    D = _davenport_value(G, args)
    max_len = args.max_len if args.max_len is not None else (
        D + 3 if args.which == 1 else d_star(G) + G.rank + 1
    )
    if args.which == 1:
        rep = conjecture1_harness(G, max_len, args.budget)
    else:
        rep = conjecture2_harness(G, max_len, args.budget)
    truncated = rep.details.get("exhaustive") is False
    return Report(f"conjecture {args.which}", G.spec(),
                  {"group": args.group, "max_len": max_len},
                  rep, _status_of(rep, truncated), _provenance(args))


# --- verify sweeps ----------------------------------------------------------


def _sweep_lower_bound(G: Group, max_len: int) -> VerificationReport:
    D = davenport(G).value
    limbs = limb_layout(G, max_len)
    checked = 0
    for occ, packed in sweep_counts(G, max_len, exclude_zero=True):
        checked += 1
        if _below_bound(limbs, packed, len(occ) - D + 1):
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "lower-bound-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S), max_len=max_len,
            )
    return VerificationReport.ok(
        "lower-bound-sweep", group=G.spec(), max_len=max_len,
        davenport=D, sequences_checked=checked,
    )


def _sweep_one_and_all(G: Group, max_len: int) -> VerificationReport:
    D = davenport(G).value
    limbs = limb_layout(G, max_len)
    checked = 0
    attained = 0
    for occ, packed in sweep_counts(G, max_len, exclude_zero=True):
        checked += 1
        is_attained, all_meet = _one_and_all(limbs, packed, len(occ) - D + 1)
        if is_attained:
            attained += 1
            if not all_meet:
                S = _seq_from_sorted(G, occ)
                return VerificationReport.fail(
                    "one-and-all-sweep", (S,), group=G.spec(),
                    sequence=format_sequence(S), max_len=max_len,
                )
    return VerificationReport.ok(
        "one-and-all-sweep", group=G.spec(), max_len=max_len,
        sequences_checked=checked, bound_attained=attained,
    )


def _sweep_transform(G: Group, max_len: int, trials: int, seed: int) -> VerificationReport:
    from .groups import all_elements

    elems = all_elements(G)
    state = seed & ((1 << 64) - 1)
    checked = 0
    for _ in range(trials):
        state, v = splitmix64(state)
        length = v % (max_len + 1)
        occ = []
        for _ in range(length):
            state, v = splitmix64(state)
            occ.append(elems[v % len(elems)])
        S = sequence(G, occ)
        keep = {}
        for g, m in S.terms:
            state, v = splitmix64(state)
            keep[g] = v % (m + 1)
        T = sequence(G, keep)
        lhs = count_all(S)[seq_sum(T)]
        rhs = count_all(transform(S, T)).zero_count
        checked += 1
        if lhs != rhs:
            return VerificationReport.fail(
                "transform-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S), subsequence=format_sequence(T),
                lhs=lhs, rhs=rhs,
            )
    return VerificationReport.ok(
        "transform-sweep", group=G.spec(), trials=checked, max_len=max_len,
    )


def _sweep_es_chain(G: Group, max_len: int) -> VerificationReport:
    D = davenport(G).value
    checked = 0
    # Only extremal S of length >= D are read: prune by the zero count.
    sweep = () if max_len < D else sweep_counts(
        G, max_len, min_length=D, exclude_zero=True,
        zero_ceiling=1 << (max_len - D + 1))
    mask = limb_layout(G, max_len).mask
    for occ, packed in sweep:
        exponent = len(occ) - D + 1
        if packed & mask != 1 << exponent:
            continue
        S = _seq_from_sorted(G, occ)
        for a in S.support():
            rest = seq_div(S, sequence(G, {a: 1}))
            if elem_neg(G, a) not in subsums(rest):
                continue
            rep = check_es_chain(S, a, D)
            checked += 1
            if rep.failed:
                return VerificationReport.fail(
                    "es-chain-sweep", (S,), group=G.spec(),
                    sequence=format_sequence(S),
                    removed=format_element(G, a),
                )
    return VerificationReport.ok(
        "es-chain-sweep", group=G.spec(), max_len=max_len, pairs_checked=checked,
    )


def _sweep_subgroup_es(G: Group, max_len: int) -> VerificationReport:
    D = davenport(G).value
    lo = max(D - 1, 0)
    checked = 0
    nontrivial_found = 0
    limbs = limb_layout(G, max_len)
    for occ, packed in sweep_counts(G, max_len, min_length=lo, exclude_zero=True):
        exponent = len(occ) - D + 1
        members = _extremal_members(G, limbs, packed, exponent)
        if not members:
            continue
        E = ExtremalSet(G, members, exponent)
        contained, verdict = max_subgroups_in_extremal_set(E)
        checked += 1
        nontrivial_found += sum(1 for H in contained if not H.is_trivial())
        if verdict.failed:
            S = _seq_from_sorted(G, occ)
            return VerificationReport.fail(
                "subgroup-es-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S),
            )
    return VerificationReport.ok(
        "subgroup-es-sweep", group=G.spec(), max_len=max_len,
        extremal_sets_checked=checked, nontrivial_subgroups=nontrivial_found,
    )


def _sweep_odd_structure(G: Group, max_len: int) -> VerificationReport:
    D = davenport(G).value
    catalog = find_extremals(G, max_len)
    observed = []
    failures = []
    skipped = 0
    for S, _ in catalog.entries:
        rep = check_odd_group_structure(S, D)
        if rep.status == "skipped":
            skipped += 1
        elif rep.failed:
            failures.append(S)
        observed.append({
            "sequence": format_sequence(S),
            "status": rep.status,
        })
    details = {
        "group": G.spec(),
        "max_len": max_len,
        "extremal_checked": len(catalog.entries),
        "skipped": skipped,
        "stats": {"exhaustive": catalog.exhaustive},
    }
    if G.order % 2 == 0:
        details["note"] = "group order is even; behavior recorded, nothing asserted"
    if failures:
        details["counterexample"] = format_sequence(failures[0])
        return VerificationReport("odd-structure-sweep", "fail", details, tuple(failures[:1]))
    return VerificationReport("odd-structure-sweep", "pass", details)


def _sweep_corollary(G: Group, max_len: int) -> VerificationReport:
    D = davenport(G).value
    catalog = find_extremals(G, max_len)
    zero = G.zero()
    checked = 0
    for S, E in catalog.entries:
        if E.members != {zero}:
            continue
        rep = check_corollary_decomposition(S, D)
        if rep.status == "skipped":
            continue
        checked += 1
        if rep.failed:
            return VerificationReport.fail(
                "corollary-sweep", (S,), group=G.spec(),
                sequence=format_sequence(S),
            )
    return VerificationReport.ok(
        "corollary-sweep", group=G.spec(), max_len=max_len,
        decompositions_checked=checked,
        stats={"exhaustive": catalog.exhaustive},
    )


def _sweep_equivalences(G: Group, max_len: int, family_k: int) -> VerificationReport:
    profile = condition_profile(G)
    details = {
        "group": G.spec(),
        "cond_iii": profile.cond_iii,
        "t_bound": profile.t,
    }
    if not profile.cond_iii:
        H = profile.offending_H
        details["offending_subgroup"] = sorted(
            format_element(G, x) for x in H.elements
        )
        family = [
            construct_unbounded_family(G, H, k) for k in range(1, family_k + 1)
        ]
        details["family"] = [format_sequence(S) for S in family]
        details["family_verified"] = True  # construct re-verifies each member
        details["note"] = "extremal lengths unbounded; family exhibited"
        return VerificationReport("equivalences", "pass", details)
    cap = min(max_len, profile.t)
    catalog = find_extremals(G, cap)
    lengths = sorted({len(S) for S, _ in catalog.entries})
    details["sweep_cap"] = cap
    details["extremal_lengths"] = lengths
    details["max_extremal_length"] = catalog.max_length_found
    details["ceiling_within_t_bound"] = catalog.max_length_found <= profile.t
    details["stats"] = {"exhaustive": catalog.exhaustive}
    status = "pass" if details["ceiling_within_t_bound"] else "fail"
    return VerificationReport("equivalences", status, details)


def cmd_verify(args) -> Report:
    if args.theorem == "cn":
        if args.n is None:
            raise ValueError("verify cn requires --n")
        max_len = args.max_len if args.max_len is not None else args.n + 2
        rep = check_cyclic_characterization(args.n, max_len)
        return Report("verify cn", f"C{args.n}",
                      {"theorem": "cn", "n": args.n, "max_len": max_len},
                      rep, _status_of(rep), _provenance(args))
    if args.group is None:
        raise ValueError(f"verify {args.theorem} requires a group")
    G = parse_group(args.group)
    D = _davenport_value(G, args)
    default_len = {"lower-bound": D + 4, "one-and-all": D + 4}.get(args.theorem, D + 3)
    max_len = args.max_len if args.max_len is not None else default_len
    if args.theorem == "lower-bound":
        rep = _sweep_lower_bound(G, max_len)
    elif args.theorem == "one-and-all":
        rep = _sweep_one_and_all(G, max_len)
    elif args.theorem == "transform":
        rep = _sweep_transform(G, max_len, args.trials, args.seed)
    elif args.theorem == "es-chain":
        rep = _sweep_es_chain(G, max_len)
    elif args.theorem == "subgroup-es":
        rep = _sweep_subgroup_es(G, max_len)
    elif args.theorem == "odd-structure":
        rep = _sweep_odd_structure(G, max_len)
    elif args.theorem == "corollary":
        rep = _sweep_corollary(G, max_len)
    elif args.theorem == "equivalences":
        rep = _sweep_equivalences(G, max_len, args.family_k)
    else:
        raise ValueError(f"unknown theorem id {args.theorem!r}")
    truncated = rep.details.get("stats", {}).get("exhaustive") is False
    return Report(f"verify {args.theorem}", G.spec(),
                  {"theorem": args.theorem, "group": args.group,
                   "max_len": max_len},
                  rep, _status_of(rep, truncated), _provenance(args))


# --- argument parsing -------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the report as JSON")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp from provenance")
    common.add_argument("--davenport-cap", type=int, default=DAVENPORT_CAP,
                        help="order cap for exact Davenport search")

    parser = argparse.ArgumentParser(
        prog="zerosum",
        description="Exact subsequence-sum counts, Davenport constants, and "
                    "structure checks over finite abelian groups.",
    )
    parser.add_argument("--version", action="version", version=f"zerosum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="group utilities")
    gsub = p_group.add_subparsers(dest="group_command", required=True)
    p_info = gsub.add_parser("info", parents=[common], help="canonical form and basic data")
    p_info.add_argument("spec")
    p_info.set_defaults(run=cmd_group_info)

    p_count = sub.add_parser("count", parents=[common],
                             help="subsequence-sum counts for a sequence")
    p_count.add_argument("group")
    p_count.add_argument("seq")
    p_count.add_argument("--g", help="report only the count at this element")
    p_count.set_defaults(run=cmd_count)

    p_dav = sub.add_parser("davenport", parents=[common], help="Davenport constant")
    p_dav.add_argument("group")
    p_dav.add_argument("--method", choices=("auto", "exact", "formula", "both"),
                       default="auto")
    p_dav.set_defaults(run=cmd_davenport)

    p_ext = sub.add_parser("extremal", parents=[common],
                           help="catalog sequences attaining the count bound")
    p_ext.add_argument("group")
    p_ext.add_argument("--max-len", type=int, required=True)
    p_ext.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_ext.add_argument("--random", action="store_true",
                       help="sample instead of sweeping (max-len = sampled length)")
    p_ext.add_argument("--trials", type=int, default=10000)
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.set_defaults(run=cmd_extremal)

    p_ver = sub.add_parser("verify", parents=[common], help="replay a structural statement")
    p_ver.add_argument("theorem", choices=THEOREMS)
    p_ver.add_argument("group", nargs="?")
    p_ver.add_argument("--n", type=int, help="cyclic order for `verify cn`")
    p_ver.add_argument("--max-len", type=int)
    p_ver.add_argument("--trials", type=int, default=1000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--family-k", type=int, default=10)
    p_ver.set_defaults(run=cmd_verify)

    p_conj = sub.add_parser("conjecture", parents=[common],
                            help="run a conjecture-falsification harness")
    p_conj.add_argument("which", type=int, choices=(1, 2))
    p_conj.add_argument("group")
    p_conj.add_argument("--max-len", type=int)
    p_conj.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_conj.set_defaults(run=cmd_conjecture)

    p_con = sub.add_parser("construct", parents=[common],
                           help="build a sequence attaining the bound at g")
    p_con.add_argument("group")
    p_con.add_argument("--g", required=True)
    p_con.add_argument("--m", type=int, required=True)
    p_con.add_argument("--budget", type=int, default=200_000)
    p_con.set_defaults(run=cmd_construct)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
