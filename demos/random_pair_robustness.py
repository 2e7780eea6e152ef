"""Is the GHZ block encoding special, or would any orthogonal pair do?

Any pair of orthogonal logical states keeps the superposition a 'cat'; the
question is how fast the cross-term coherence dies.  Sampling Haar-random
orthogonal pairs shows none reach the robustness of the GHZ-encoded block.

Run: python demos/random_pair_robustness.py
"""

import numpy as np

from cghz import coherence_norm_block, ghz, random_orthogonal_pair
from cghz.oracle import generic_coherence_norm

M, P, SAMPLES, SEED = 3, 0.9, 2000, 424242

reference = coherence_norm_block(M, P)
print(f"block size m = {M}, survival p = {P}")
print(f"GHZ-encoded block coherence norm: {reference:.6f}\n")

values = []
for k in range(SAMPLES):
    a, b = random_orthogonal_pair(M, SEED + k)
    values.append(generic_coherence_norm(a, b, P))
values = np.array(values)

print(f"{SAMPLES} Haar-random orthogonal pairs:")
print(f"  best    {values.max():.6f}")
print(f"  median  {np.median(values):.6f}")
print(f"  worst   {values.min():.6f}")
print(f"  pairs above the GHZ value: {int(np.sum(values > reference + 1e-12))}")

print("\nfor comparison, the all-zeros/all-ones encoding scores only p^m:")
zero = np.zeros(2**M, dtype=complex)
zero[0] = 1.0
one = np.zeros(2**M, dtype=complex)
one[-1] = 1.0
print(f"  |0..0>,|1..1|:  {generic_coherence_norm(zero, one, P):.6f}  (p^m = {P**M:.6f})")
print(f"  GHZ pair     :  {generic_coherence_norm(ghz(M, +1), ghz(M, -1), P):.6f}")
