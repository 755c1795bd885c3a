"""Command-line front door.

Subcommands: group info | count | davenport | extremal | verify |
conjecture | construct.  Every command emits a report with the fields
command, group, parameters, result, status, provenance; --json switches
from the human rendering to machine output.  Reports are deterministic
given the flags (plus --seed for randomized modes); --no-timestamp drops
the one nondeterministic field.  The checks and sweeps live in the
library; this module parses flags, runs a command's Davenport search
first under --davenport-cap (the library reuses it) and renders reports.

Each command, and each `verify` theorem, has its own parser holding only
the flags it reads, so argparse refuses any other; a theorem's flags follow
its id, and it takes no abbreviated flag.  `group info` and `verify cn`
search no D and take no --davenport-cap.  provenance.caps lists only the
flags the command read: `extremal` drops --budget from a random draw and
--trials and --seed from its catalog, and `verify transform` given
--max-len, which searches no D, drops --davenport-cap.

Exit codes: 0 for pass/partial, 1 for a failed check, 2 for usage or
input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__, counting
from .groups import (
    SUBGROUP_CAP,
    all_subgroups,
    d_star,
    parse_group,
)
from .sequences import (
    format_element,
    format_sequence,
    parse_element,
    parse_sequence,
    seq_sum,
)
from .counting import (
    DEFAULT_BUDGET,
    count_all,
    extremal_set,
    sweep_lower_bound,
    sweep_one_and_all,
)
from .davenport import davenport, DAVENPORT_CAP
from .structure import (
    check_cyclic_characterization,
    sweep_corollary,
    sweep_equivalences,
    sweep_es_chain,
    sweep_odd_structure,
    sweep_subgroup_es,
)
from .search import (
    conjecture1_harness,
    conjecture2_harness,
    construct_extremal,
    find_extremals,
    random_search,
    sweep_transform,
)
from .reports import VerificationReport, sweep_status

# Theorem id -> the sweep replaying it, called as (G, D, max_len, args);
# each is a `verify` subcommand, as is cn.
SWEEPS = {
    "lower-bound": lambda G, D, max_len, args: sweep_lower_bound(G, D, max_len),
    "transform": lambda G, D, max_len, args: sweep_transform(
        G, max_len, args.trials, args.seed),
    "one-and-all": lambda G, D, max_len, args: sweep_one_and_all(G, D, max_len),
    "es-chain": lambda G, D, max_len, args: sweep_es_chain(G, D, max_len),
    "subgroup-es": lambda G, D, max_len, args: sweep_subgroup_es(G, D, max_len),
    "odd-structure": lambda G, D, max_len, args: sweep_odd_structure(G, D, max_len),
    "corollary": lambda G, D, max_len, args: sweep_corollary(G, D, max_len),
    "equivalences": lambda G, D, max_len, args: sweep_equivalences(
        G, max_len, args.family_k),
}


@dataclass
class Report:
    command: str
    group: str | None
    parameters: dict
    result: object
    status: str  # "pass" | "fail" | "partial"
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
    return x


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
    return 1 if report.status == "fail" else 0


def _provenance(args, unread: tuple[str, ...] = ()) -> dict:
    """Lists the parsed flags, less those the command did not read this time
    (``unread``, by attribute name)."""
    prov = {"tool": "zerosum", "version": __version__}
    caps = {}
    for name in ("max_len", "budget", "davenport_cap", "trials", "family_k"):
        if name not in unread and getattr(args, name, None) is not None:
            caps[name.replace("_", "-")] = getattr(args, name)
    if caps:
        prov["caps"] = caps
    if "seed" not in unread and getattr(args, "seed", None) is not None:
        prov["seed"] = args.seed
    if not args.no_timestamp:
        prov["timestamp"] = datetime.now(timezone.utc).isoformat()
    return prov


def _status_of(rep: VerificationReport) -> str:
    return "pass" if rep.status == "skipped" else rep.status


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
    if G.order <= SUBGROUP_CAP:
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
    # The extremal set needs |S| >= D - 1, and D >= d* + 1: a shorter S
    # never needs the search.
    if len(S) >= d_star(G):
        D = davenport(G, cap=args.davenport_cap).value
        if len(S) >= D - 1:
            members = extremal_set(S, D).members
            result["extremal_set"] = {
                "davenport": D,
                "exponent": len(S) - D + 1,
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
    davenport(G, cap=args.davenport_cap)  # the one search; the library reuses it
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
    return Report("extremal", G.spec(),
                  {"group": args.group, "max_len": args.max_len,
                   "random": args.random},
                  result, sweep_status(False, catalog.exhaustive or args.random),
                  _provenance(args, ("budget",) if args.random else ("trials", "seed")))


def cmd_construct(args) -> Report:
    G = parse_group(args.group)
    g = parse_element(G, args.g)
    D = davenport(G, cap=args.davenport_cap).value
    S = construct_extremal(G, g, args.m)
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
    D = davenport(G, cap=args.davenport_cap).value
    max_len = args.max_len if args.max_len is not None else (
        D + 3 if args.which == 1 else d_star(G) + G.rank + 1
    )
    if args.which == 1:
        rep = conjecture1_harness(G, max_len, args.budget)
    else:
        rep = conjecture2_harness(G, max_len, args.budget)
    return Report(f"conjecture {args.which}", G.spec(),
                  {"group": args.group, "max_len": max_len},
                  rep, _status_of(rep), _provenance(args))


def cmd_verify(args) -> Report:
    G = parse_group(args.group)
    # The transform sweep never reads D; only its default length does.
    D = None
    if args.theorem != "transform" or args.max_len is None:
        D = davenport(G, cap=args.davenport_cap).value
    max_len = args.max_len
    if max_len is None:
        max_len = D + (4 if args.theorem in ("lower-bound", "one-and-all") else 3)
    rep = SWEEPS[args.theorem](G, D, max_len, args)
    return Report(f"verify {args.theorem}", G.spec(),
                  {"theorem": args.theorem, "group": args.group,
                   "max_len": max_len},
                  rep, _status_of(rep),
                  _provenance(args, ("davenport_cap",) if D is None else ()))


def cmd_verify_cn(args) -> Report:
    max_len = args.max_len if args.max_len is not None else args.n + 2
    rep = check_cyclic_characterization(args.n, max_len)
    return Report("verify cn", f"C{args.n}",
                  {"theorem": "cn", "n": args.n, "max_len": max_len},
                  rep, _status_of(rep), _provenance(args))


# --- argument parsing -------------------------------------------------------


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _length(text: str) -> int:
    """A length >= 0 and at most ``counting.MAX_LENGTH``, read per call."""
    value = _nonnegative(text)
    if value > counting.MAX_LENGTH:
        raise argparse.ArgumentTypeError(f"must be <= {counting.MAX_LENGTH}, got {value}")
    return value


def _new_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit the report as JSON")
    output.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp from provenance")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
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
    p_info = gsub.add_parser("info", parents=[output], help="canonical form and basic data")
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
    p_ext.add_argument("--max-len", type=_length, required=True)
    p_ext.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
    p_ext.add_argument("--random", action="store_true",
                       help="sample instead of sweeping (max-len = sampled length)")
    p_ext.add_argument("--trials", type=_nonnegative, default=10000)
    p_ext.add_argument("--seed", type=int, default=0)
    p_ext.set_defaults(run=cmd_extremal)

    # A theorem takes no abbreviated flag: else cn's --n would stand for
    # --no-timestamp in every other theorem.
    p_ver = sub.add_parser("verify", help="replay a structural statement")
    vsub = p_ver.add_subparsers(dest="theorem", required=True)
    swept = argparse.ArgumentParser(add_help=False, parents=[common])
    swept.add_argument("group")
    swept.add_argument("--max-len", type=_length)
    for theorem in SWEEPS:
        p_thm = vsub.add_parser(theorem, parents=[swept], allow_abbrev=False)
        if theorem == "transform":
            p_thm.add_argument("--trials", type=_nonnegative, default=1000)
            p_thm.add_argument("--seed", type=int, default=0)
        if theorem == "equivalences":
            p_thm.add_argument("--family-k", type=_nonnegative, default=10)
        p_thm.set_defaults(run=cmd_verify)
    p_cn = vsub.add_parser("cn", parents=[output], allow_abbrev=False)
    p_cn.add_argument("--n", type=int, required=True, help="the cyclic order")
    p_cn.add_argument("--max-len", type=_length)
    p_cn.set_defaults(run=cmd_verify_cn)

    p_conj = sub.add_parser("conjecture", parents=[common],
                            help="run a conjecture-falsification harness")
    p_conj.add_argument("which", type=int, choices=(1, 2))
    p_conj.add_argument("group")
    p_conj.add_argument("--max-len", type=_length)
    p_conj.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
    p_conj.set_defaults(run=cmd_conjecture)

    p_con = sub.add_parser("construct", parents=[common],
                           help="build a sequence attaining the bound at g")
    p_con.add_argument("group")
    p_con.add_argument("--g", required=True)
    p_con.add_argument("--m", type=_length, required=True)
    p_con.set_defaults(run=cmd_construct)

    return parser


# Built once, at import: parse_args leaves a parser unchanged, so a
# process that runs `main` many times pays for the build once, and `main`
# sets no module attribute.
_PARSER = _new_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        report = args.run(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
