"""Fresh-interpreter probe for the cold_cli workload.

``python bench/cold_child.py import`` imports ``tetraclausen.cli`` and prints
``{"start": t, "imported": t}`` (``time.monotonic``, comparable with the
parent's clock).  ``python bench/cold_child.py trace <span file> <argv...>``
runs the CLI with tracing installed and writes the spans, the ``get_ctx``
counters and the timestamps to ``<span file>``; the CLI output goes to
stdout as with ``python -m tetraclausen.cli``.
"""

import time

T_START = time.monotonic()

import sys  # noqa: E402

import tetraclausen.cli as cli  # noqa: E402

T_IMPORTED = time.monotonic()

import json  # noqa: E402


def main():
    if sys.argv[1] == "import":
        print(json.dumps({"start": T_START, "imported": T_IMPORTED}))
        return 0
    import tracing
    from tetraclausen import mpcore

    tracer = tracing.install()
    tracer.job = 0
    try:
        code = tracer.wrap("cli.main", cli.main)(sys.argv[3:])
    finally:
        info = mpcore.get_ctx.cache_info()
        with open(sys.argv[2], "w", encoding="utf-8") as fh:
            json.dump({"start": T_START, "imported": T_IMPORTED, "spans": tracer.spans,
                       "get_ctx": [info.hits, info.misses]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
