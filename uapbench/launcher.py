"""Traced stand-in for ``python -m uaplab``: times ``import uaplab.cli``,
wraps the traced functions, runs ``uaplab.cli.main`` and writes the spans.

    python launcher.py SPANS_JSON <uaplab arguments>
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    spans_path = Path(sys.argv[1])
    before = set(sys.modules)
    start = time.perf_counter()
    import uaplab.cli

    import_s = time.perf_counter() - start
    added = set(sys.modules) - before

    from spans import Tracer, spans_to_json

    tracer = Tracer()
    with tracer:
        code = uaplab.cli.main(sys.argv[2:])
    spans_path.write_text(json.dumps({
        "import_s": import_s,
        "modules": len(added),
        "scipy_modules": sum(1 for m in added if m.split(".")[0] == "scipy"),
        "spans": spans_to_json(tracer.spans),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
