"""Write fq_reference.json: the folded-cube rows too slow to recount in
every run, recounted here with networkx.simple_cycles.

    python3 perfbench/make_reference.py

Takes about half a minute (FQ_9 with cycles up to length 6 is most of it).
"""

from __future__ import annotations

import json

import networkx

from checks import LIVE_RECOUNT, REFERENCE_FILE, networkx_lambda
from workloads import SCAN_FQ8_DIMS, SCAN_FQ_DIMS


def main() -> None:
    rows = []
    for (l, m), live_max in LIVE_RECOUNT.items():
        dims = SCAN_FQ8_DIMS if (l, m) == (1, 8) else SCAN_FQ_DIMS
        for n in dims:
            if n > live_max:
                rows.append({"l": l, "m": m, "n": n, "lambda": networkx_lambda(n, l, m)})
                print(rows[-1], flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"command": "python3 perfbench/make_reference.py",
                   "networkx": networkx.__version__, "rows": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
