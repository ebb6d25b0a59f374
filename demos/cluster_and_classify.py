# End-to-end run on one simulated dataset: standardise, build the distance
# matrix, cluster three ways, and classify the held-out test half with 3-nn.
#
# Run with:  python3 demos/cluster_and_classify.py

from scaledist.distance import cross, pairwise
from scaledist.evaluate import adjusted_rand_index, misclassification_rate
from scaledist.learn import cut_tree, knn_classify, linkage, pam
from scaledist.simgen import generate, setup_catalog
from scaledist.standardise import fit_standardiser

spec = setup_catalog()["ntn_05"].with_size(p=300, n_per_class=50)
data = generate(spec, seed=5)

# fit on training data only; the test half reuses the same fitted pieces
std = fit_standardiser(data.x_train, "boxplot")
Z = std.transform(data.x_train)
D = pairwise(Z, 1)

print("clustering %d training points (two classes)" % len(data.y_train))
for name in ("pam", "complete", "average"):
    if name == "pam":
        found = pam(D, 2).labels
    else:
        found = cut_tree(linkage(D, name), 2)
    ari = adjusted_rand_index(found, data.y_train)
    print("  %-9s ari %.4f" % (name, ari))

Ztest = std.transform(data.x_test, cap=True)  # capped: the fit never saw these rows
C = cross(Ztest, Z, 1)
predicted = knn_classify(C, data.y_train, k=3)
rate = misclassification_rate(predicted, data.y_test)
print("\n3-nn on %d held-out points: misclassification %.4f" % (len(data.y_test), rate))

# same pipeline without any standardisation, for contrast; the couple of
# huge-variance noise variables decide every distance
D0 = pairwise(data.x_train, 1)
ari0 = adjusted_rand_index(pam(D0, 2).labels, data.y_train)
pred0 = knn_classify(cross(data.x_test, data.x_train, 1), data.y_train, k=3)
print("\nwithout standardisation: pam ari %.4f, 3-nn misclassification %.4f"
      % (ari0, misclassification_rate(pred0, data.y_test)))
