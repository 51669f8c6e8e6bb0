"""Walk through the DCT matrix, the blocked low-frequency corner and the low-cut filter.

Run from the repository root:  python demos/01_dct_highpass.py
"""

import numpy as np

from hsfpn import dct_matrix, highpass_cut, lowcut_filter

rng = np.random.default_rng(0)


def coeffs_of(x):
    """2D DCT of one plane as two matrix products, D_H @ x @ D_W.T."""
    return dct_matrix(x.shape[0]) @ x @ dct_matrix(x.shape[1]).T


print("A constant plane concentrates all its energy in the (0, 0) coefficient:")
plane = np.full((6, 6), 0.5, np.float32)
coeffs = coeffs_of(plane)
print(f"  coeffs_of(0.5 * ones(6x6))[0, 0] = {coeffs[0, 0]:.4f}  (expected 0.5 * sqrt(36) = 3.0)")
print(f"  largest off-DC magnitude         = {np.abs(coeffs).ravel()[1:].max():.2e}")

print("\nThe DCT matrix is orthonormal, so its transpose inverts it exactly:")
x = rng.standard_normal((32, 32)).astype(np.float32)
d = dct_matrix(32)
print(f"  max |D.T @ coeffs_of(x) @ D - x| = {np.abs(d.T @ coeffs_of(x) @ d - x).max():.2e}")
print(f"  energy before {np.square(x, dtype=np.float64).sum():.6f} "
      f"/ after {np.square(coeffs_of(x)).sum():.6f}")

print("\nThe fraction alpha blocks the top-left (low-frequency) corner; as a mask:")
r, s = highpass_cut(8, 8, 0.25)
mask = np.ones((8, 8), int)
mask[:r, :s] = 0
print(f"  highpass_cut(8, 8, 0.25) = {(r, s)}")
print(mask)

print("\nalpha=0 blocks nothing, alpha=1 blocks everything:")
print(f"  highpass_cut(8, 8, 0.0) = {highpass_cut(8, 8, 0.0)}")
print(f"  highpass_cut(8, 8, 1.0) = {highpass_cut(8, 8, 1.0)}")

print("\nAn absolute cut works in raw coefficient counts instead; the coefficients")
print("that lowcut_filter(x, 2, 3) leaves nonzero on a 6x6 plane:")
y = rng.standard_normal((6, 6)).astype(np.float32)
print((np.abs(coeffs_of(lowcut_filter(y, 2, 3))) > 1e-6).astype(int))

print("\nlowcut_filter is the mask form (transform, zero the corner, invert) written")
print("as a projection, so filtering twice changes nothing.")
smooth = np.add.outer(np.linspace(0, 1, 16), np.linspace(0, 1, 16)).astype(np.float32)
r, s = highpass_cut(16, 16, 0.25)
once = lowcut_filter(smooth, r, s)
twice = lowcut_filter(once, r, s)
masked = coeffs_of(smooth)
masked[:r, :s] = 0.0
d = dct_matrix(16)
print(f"  max |filter(x) - mask form(x)|      = {np.abs(once - d.T @ masked @ d).max():.2e}")
print(f"  max |filter(filter(x)) - filter(x)| = {np.abs(twice - once).max():.2e}")
kept = np.square(once, dtype=np.float64).sum() / np.square(smooth, dtype=np.float64).sum()
print(f"  the smooth ramp keeps only {kept:.2%} of its energy past the cut corner")
