#!/usr/bin/env python3
"""Survey minimal monomial identities against the two degree-bound readings.

For each grading in the standard family (or one given by --config), list the
lengths of all subword-minimal monomial identities up to twice the basis
bound 2n-1.  Minimal means no proper contiguous subword is an identity.
The profile search gives one representative word per length and profile
(the composition state of the word and of the word without its first
letter), so the counts printed are of representatives, not of all
minimal identities; every length that has a minimal identity shows up.
Two findings come out of this survey:

  * subword-minimal identities LONGER than 2n-1 exist whenever the support
    allows neutral-degree padding inside a word, so "contains a short
    contiguous identity subword" is not a complete certificate;
  * every such word is still the substitution image of an identity of
    degree at most 2n-1, obtained by condensing contiguous blocks, which is
    the consequence mechanism the basis theorem actually needs.

The script exits nonzero only if a long minimal identity without a block
certificate shows up, which would be a genuine counterexample to the
degree bound itself.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gstar import grading_from_json, minimal_identities_up_to
from gstar.identities import block_certificate
from gstar.sampling import standard_gradings


def survey(name, grading, conjecture_bound=None):
    bound = 2 * grading.n - 1
    words = minimal_identities_up_to(grading, 2 * bound)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w), []).append(w)
    print(f"{name}: n={grading.n}, basis bound 2n-1={bound}")
    if not words:
        print("  no monomial identities at all (crossed-product behaviour)")
        return True
    uncertified = 0
    for length in sorted(by_len):
        sample = by_len[length][0]
        spelled = " ".join(grading.group.name_of(element) + ("*" if star else "")
                           for _, element, star in sample)
        marker = ""
        if length > bound:
            blocks = block_certificate(sample, grading)
            marker = " > bound; block certificate " + (
                f"{blocks}" if blocks else "MISSING"
            )
            for w in by_len[length]:
                if block_certificate(w, grading) is None:
                    uncertified += 1
        print(f"  length {length:2d}: {len(by_len[length]):4d} representative minimal words  e.g. ({spelled}){marker}")
    if conjecture_bound is not None:
        beyond = [l for l in by_len if l > conjecture_bound]
        verdict = "holds" if not beyond else f"fails at lengths {sorted(beyond)}"
        print(f"  degree<={conjecture_bound} conjecture on this family: {verdict}")
    if uncertified:
        print(f"  !! {uncertified} long minimal identities lack a block certificate")
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, help="grading config JSON (default: standard family)")
    parser.add_argument("--conjecture", action="store_true",
                        help="also report the experimental degree<=n reading")
    args = parser.parse_args()
    ok = True
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            grading = grading_from_json(json.load(fh))
        ok = survey(str(args.config), grading, grading.n if args.conjecture else None)
    else:
        for name, grading in standard_gradings().items():
            ok = survey(name, grading, grading.n if args.conjecture else None) and ok
            print()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
