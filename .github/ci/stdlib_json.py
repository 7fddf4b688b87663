"""Exit 1 unless stdin holds exactly the bytes that
``json.dumps(indent=2, sort_keys=True)`` writes for the document it holds,
followed by one newline.

    polyfield check-equivalence --field "dx = x; dy = y" | python stdlib_json.py
"""

import json
import sys

text = sys.stdin.read()
if text != json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n":
    sys.exit("not the standard library's JSON")
