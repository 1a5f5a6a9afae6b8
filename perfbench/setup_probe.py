"""One set-up measurement in a fresh interpreter.

Usage::

    python3 perfbench/setup_probe.py SERVER PROTOCOL DB [SERVER PROTOCOL DB ...]

Times the import of the CLI entry point (``protoverify.cli``, which
imports the whole package) plus one load of every given input through
``load_ontology``, ``parse_protocol`` and ``load_database``: what every
CLI invocation pays before it verifies anything. Prints
``<import seconds> <load seconds>``.
"""

import os
import sys
import time


def main(start: float) -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import protoverify.cli  # noqa: F401
    from protoverify.ontology import load_ontology
    from protoverify.protocol import parse_protocol
    from protoverify.relstore import load_database

    imported = time.perf_counter()
    paths = sys.argv[1:]
    for i in range(0, len(paths), 3):
        server = load_ontology(paths[i])
        with open(paths[i + 1], encoding="utf-8") as fh:
            parse_protocol(fh.read())
        load_database(paths[i + 2], server)
    loaded = time.perf_counter()
    print(f"{imported - start!r} {loaded - imported!r}")


if __name__ == "__main__":
    main(time.perf_counter())
