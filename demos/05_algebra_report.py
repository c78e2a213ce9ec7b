"""The exact symbolic ledger: every symmetry relation, verified or refuted.

Runs the full verification catalog with exact rational arithmetic: the
canonical commutators, the d=3 symmetry tables of both classical
representations (vanishing central charge vs mass central charge), the
interacting two-particle covariance conditions, the quantum sector, the
quantum-classical hybrid, and the partial-quantization identities.

One relation fails, and rightly so: the hybrid total-momentum
commutator [p + k, L_h] is not zero but -i kappa lam_p for a harmonic
coupling; the corrected identity and the two negative controls document
precisely how the conservation law does and does not survive in the
quantum-classical setting.
"""

from koopman.ccr import verify_algebra
from koopman.suites import suite_group

print(__doc__)

grand_pass = grand_total = 0
for title, relations in suite_group("all"):
    report = verify_algebra(relations)
    p, n = report.counts
    grand_pass += p
    grand_total += n
    print(f"== {title} ({p}/{n})")
    for line in report.lines()[:-1]:
        print("  " + line)
    print()
print(f"total: {grand_pass}/{grand_total} relations hold as stated")
