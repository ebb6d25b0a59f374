# Walkthrough of the boxplot transformation on a single nasty variable.
#
# We draw a heavy-tailed sample, fit the transformation, and then look at
# what happens to the quartiles, the extremes, and a test point far outside
# the training range.  Run with:  python3 demos/transform_walkthrough.py

import numpy as np

from scaledist.standardise import fit_standardiser

rng = np.random.default_rng(7)

# t with 2 degrees of freedom: infinite variance, so classical scaling
# is dominated by whatever extreme happened to be drawn
x = rng.standard_t(2, size=150) * 3.0 + 40.0
X = x.reshape(-1, 1)

print("raw variable")
print("  n=%d  min=%.2f  q1=%.2f  median=%.2f  q3=%.2f  max=%.2f" % (
    x.size, x.min(), *np.quantile(x, [0.25, 0.5, 0.75]), x.max()))

std = fit_standardiser(X, "boxplot")
params = std.boxplot
print("\nfitted pieces")
print("  median %.4f, lower quartile range %.4f, upper quartile range %.4f"
      % (params.median[0], params.lqr[0], params.uqr[0]))
print("  scaled min %.3f, scaled max %.3f" % (params.scaled_min[0], params.scaled_max[0]))
print("  tail exponents: lower %.6g, upper %.6g" % (params.t_lower[0], params.t_upper[0]))

out = std.transform(X)[:, 0]
print("\ntransformed variable")
print("  min=%.6f  q1=%.6f  median=%.6f  q3=%.6f  max=%.6f" % (
    out.min(), *np.quantile(out, [0.25, 0.5, 0.75]), out.max()))
print("  the quartiles sit at -0.5 / 0 / +0.5 and the training extremes at -2 / +2")

# quartile values map exactly, not just approximately
anchors = np.array([params.median[0] - params.lqr[0],
                    params.median[0],
                    params.median[0] + params.uqr[0]]).reshape(-1, 1)
print("\nanchor mapping:", std.transform(anchors)[:, 0].tolist())

# a test observation five training-ranges out maps beyond 2 under the bare
# transform; capping clips it so one wild measurement cannot dominate a distance
wild = np.array([[x.max() + 5 * (x.max() - x.min())]])
print("wild test point %.1f maps to %.4f uncapped, %.4f with cap=True"
      % (wild[0, 0], std.transform(wild)[0, 0],
         std.transform(wild, cap=True)[0, 0]))

# inside the box nothing interesting happens: the map is linear there
probe = np.array([[params.median[0] + 0.3 * 2 * params.uqr[0]]])
print("a mid-box point maps to %.4f (linear region)" % std.transform(probe)[0, 0])
