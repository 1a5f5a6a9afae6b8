"""Command-line entry point.

Commands::

    protoverify check     --server O.json --protocol P
    protoverify verify-db --server O.json --protocol P --db DIR
    protoverify step      --server O.json --protocol P --db DIR --trace T.json
    protoverify parse     --protocol P

Exit codes are a stable contract: 0 clean, 1 findings, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import consistency, oracle, spuriousness, values
from .errors import InconsistentTraceError, ProtocolError, ProtoVerifyError
from .ontology import load_ontology
from .protocol import Branch, Query, Var, parse_protocol, print_protocol
from .relstore import load_database

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _read_protocol(path: str) -> str:
    """The protocol file, or standard input for ``-``, as UTF-8 text with
    newlines translated as text mode translates them."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(
            f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _add_common(sub, db=False, trace=False):
    sub.add_argument("--server", required=True, help="server ontology (JSON)")
    sub.add_argument("--client", help="client ontology (accepted for provenance)")
    sub.add_argument("--protocol", required=True, help="protocol file, or - for stdin")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if db:
        sub.add_argument("--db", required=True, help="data directory")
        sub.add_argument(
            "--paper-disjunction",
            action="store_true",
            help="combine relevant path conditions disjunctively",
        )
        sub.add_argument(
            "--oracle",
            action="store_true",
            help="cross-check every verdict against the execution oracle",
        )
    if trace:
        sub.add_argument("--trace", required=True, help="conversation prefix (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoverify",
        description="verify a query protocol against a server ontology and database",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="ontology-level conflict detection")
    _add_common(p_check)
    p_check.add_argument(
        "--fail-fast", action="store_true", help="stop at the first mismatch"
    )

    p_verify = subs.add_parser(
        "verify-db", help="check conflicts against the back-end database"
    )
    _add_common(p_verify, db=True)

    p_step = subs.add_parser(
        "step", help="re-verify after a partial conversation trace"
    )
    _add_common(p_step, db=True, trace=True)

    p_parse = subs.add_parser("parse", help="parse and pretty-print a protocol")
    p_parse.add_argument("--protocol", required=True)
    p_parse.add_argument("--format", choices=("text", "json"), default="text")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first ``main`` call and reused after."""
    return build_parser()


def _load_inputs(args, with_db=False):
    server = load_ontology(args.server)
    if args.client:
        load_ontology(args.client)  # validated and echoed for provenance only
    ast = parse_protocol(_read_protocol(args.protocol))
    db = load_database(args.db, server) if with_db else None
    return server, ast, db


def _emit_mismatches(mismatches, server, fmt, out):
    if fmt == "json":
        print(json.dumps([m.to_json() for m in mismatches], indent=2), file=out)
    else:
        if not mismatches:
            print("no ontology-level conflicts", file=out)
        for m in mismatches:
            print(consistency.explain_mismatch(m, server).message, file=out)


def cmd_check(args) -> int:
    server, ast, _ = _load_inputs(args)
    mismatches = consistency.check_consistency(
        ast, server, fail_fast=getattr(args, "fail_fast", False)
    )
    _emit_mismatches(mismatches, server, args.format, sys.stdout)
    return EXIT_FINDINGS if mismatches else EXIT_CLEAN


def _emit_report(report, fmt, out, oracle_agreement=None):
    payload = report.to_json()
    if oracle_agreement is not None:
        for entry in payload:
            entry["oracleAgrees"] = oracle_agreement[entry["queryId"]]
    if fmt == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        if not payload:
            print("no remaining conflicts", file=out)
        for entry in payload:
            line = f"query {entry['queryId']}: {entry['verdict']}"
            if entry["verdict"] == spuriousness.REALIZABLE:
                line += f" (witness {entry.get('witness')})"
            else:
                line += f" (assignable set emptied at {entry.get('emptiedAt')})"
            if "oracleAgrees" in entry:
                line += f" [oracle agrees: {entry['oracleAgrees']}]"
            if entry.get("note"):
                line += f" -- {entry['note']}"
            print(line, file=out)


def _oracle_agreement(report, ast, db, prefix=()):
    """Whether the oracle, searching from the prefix, finds each conflict
    reachable exactly when the report calls it realizable. The searches
    share one memo."""
    memo = oracle.Memo(ast, db)
    agreement = {}
    for entry in report.entries:
        reachable = oracle.is_reachable(ast, db, entry.query_id, memo=memo, prefix=prefix)
        agreement[entry.query_id] = (
            reachable == (entry.verdict == spuriousness.REALIZABLE)
        )
    return agreement


def cmd_verify(args) -> int:
    """``verify-db``, and ``step``, which first replays its trace."""
    server, ast, db = _load_inputs(args, with_db=True)
    mismatches = consistency.check_consistency(ast, server)
    combination = (
        spuriousness.DISJUNCTION if args.paper_disjunction else spuriousness.CONJUNCTION
    )
    if args.command == "step":
        with open(args.trace, encoding="utf-8") as fh:
            try:
                raw_trace = json.load(fh)
            except ValueError as exc:  # also integers past the digit limit
                raise InconsistentTraceError(f"malformed trace: {exc}") from exc
        trace = spuriousness.parse_trace(raw_trace, ast, db)
        report = spuriousness.step_verify(ast, server, db, mismatches, trace, combination)
    else:
        trace = ()
        report = spuriousness.verify_all(ast, server, db, mismatches, combination)
    agreement = None
    if args.oracle:
        prefix = [(qid, None if answer is spuriousness.NO_ANSWER else answer)
                  for qid, answer, _, _ in trace]
        agreement = _oracle_agreement(report, ast, db, prefix)
    _emit_report(report, args.format, sys.stdout, agreement)
    return EXIT_FINDINGS if report.has_realizable() else EXIT_CLEAN


def cmd_parse(args) -> int:
    ast = parse_protocol(_read_protocol(args.protocol))
    if args.format == "json":
        print(json.dumps(_ast_to_json(ast), indent=2))
    else:
        sys.stdout.write(print_protocol(ast))
    return EXIT_CLEAN


def _ast_to_json(ast):
    return [_statement_json(s) for s in ast.statements]


def _operand_json(o):
    if isinstance(o, Var):
        return {"var": o.name, **({"field": o.date_field} if o.date_field else {})}
    return {"lit": values.value_to_json(o.value)}


def _condition_json(c):
    return {"lhs": _operand_json(c.lhs), "op": c.op, "rhs": _operand_json(c.rhs)}


def _statement_json(st):
    if isinstance(st, Query):
        return {
            "query": {
                "id": st.id,
                "bindings": [{"attribute": a, "variable": v} for a, v in st.bindings],
                "from": [list(cr.names) for cr in st.class_refs],
                "where": [_condition_json(c) for c in st.where],
            }
        }
    if isinstance(st, Branch):
        out = {
            "if": {
                "id": st.id,
                "conditions": [_condition_json(c) for c in st.conditions],
                "then": [_statement_json(s) for s in st.then_block],
            }
        }
        if st.else_block is not None:
            out["if"]["else"] = [_statement_json(s) for s in st.else_block]
        return out
    return {"action": {"name": st.name, "args": [_operand_json(a) for a in st.args]}}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "verify-db": cmd_verify,
        "step": cmd_verify,
        "parse": cmd_parse,
    }
    try:
        return handlers[args.command](args)
    except (ProtoVerifyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
