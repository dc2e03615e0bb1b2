#!/usr/bin/env python3
"""Re-derive the published inequality tables and print the full report.

Takes about 1 s on a 2-core Xeon.
"""

import argparse
import json
import sys
import time

from weilgroup.verify import verify_paper_lists


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()
    start = time.time()
    report = verify_paper_lists()
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.to_text())
        print(f"\nelapsed: {time.time() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
