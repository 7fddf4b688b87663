#!/usr/bin/env bash
# Exact checks of the installed `polyfield` console script that need only
# the standard library, shared by the tier1 and exact-python310 CI jobs.
# Run from the repository root: bash .github/ci/exact_checks.sh
# It writes report.json and err.txt in the working directory.
set -euo pipefail
same() { python "$(dirname "$0")/stdlib_json.py"; }

# Tarski signs 0 at irrational divisor points: twelve Degenerate records at
# the roots of u^2 - 1/2 and u^2 - 2, where both eigenvalue signs are 0,
# which the sign certificate never answers and the Tarski query must (exit 3)
code=0
polyfield check-equivalence --field "dx = x^5 - 4*x^3*y^2 + 4*x*y^4; dy = x^2*y - 2*y^3" > report.json || code=$?
test "$code" = 3
same < report.json
python -c 'import json; xpos = json.load(open("report.json"))["report"]["inventory"]["field"]["Xpos"]; irr = [r for r in xpos if len(set(r["position"]["interval"])) == 2]; assert len(irr) == 2 and all(r["tangent"]["sign"] == r["transverse"]["sign"] == 0 for r in irr)'

# Closed-form divisor points from a squarefree part: the Xpos and fan:1
# restrictions are -u(1 + u)^3 and the Xneg one -u(1 - u)^3; real_roots
# reads their triple roots in closed form from the squarefree part, and
# u = -1 is a Degenerate record (exit 3)
code=0
polyfield check-equivalence --field "dx = 4/3*x^3; dy = x^2*y" > report.json || code=$?
test "$code" = 3
same < report.json
python -c 'import json; xpos = json.load(open("report.json"))["report"]["inventory"]["field"]["Xpos"]; assert [r["position"]["interval"] for r in xpos] == [["-1", "-1"], ["0", "0"]] and xpos[0]["classification"] == "Degenerate"'

# Repeated irrational factor and a parse error: the Xpos restriction is
# (u - 1)(u^2 - 2)^2 up to a constant; one remainder sequence of (f, f')
# gives real_roots the squarefree part, whose rational root 1 is deflated
# before +-sqrt(2) are isolated (exit 0); a trailing space parses (exit 0);
# and a parse error is one JSON line on stderr (exit 2)
polyfield check-equivalence --field "dx = x^5; dy = y^5 - x*y^4 - 4*x^2*y^3 + 4*x^3*y^2 + 5*x^4*y - 4*x^5" > report.json
same < report.json
python -c 'import json; xpos = json.load(open("report.json"))["report"]["inventory"]["field"]["Xpos"]; assert [r["position"]["interval"] for r in xpos] == [["-3/2", "-5/4"], ["1", "1"], ["5/4", "3/2"]]'
polyfield principal-part --field "dx = x; dy = y " > /dev/null
code=0
polyfield principal-part --field "dx = 2/0*x; dy = y" 2> err.txt || code=$?
test "$code" = 2
python -c 'import json; lines = open("err.txt").read().splitlines(); assert len(lines) == 1 and json.loads(lines[0])["error"] == "ParseError"'
