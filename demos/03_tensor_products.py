"""Tensor product decomposition for the odd orthogonal, symplectic, and
even orthogonal families, all driven by one coefficient formula.

Run:  python demos/03_tensor_products.py
"""

from tensorcube import (
    GroupSpec,
    nl_coefficient,
    nl_sum_support,
    render,
    tensor_decompose,
)

print("== Sp(4): the standard representation squared ==")
res = tensor_decompose((1,), (1,), GroupSpec("C", 2))
for nu, mult in res.terms.items():
    print(f"  {render(nu) or 'trivial':8} x {mult}")

print()
print("== the same product for all three families at rank 6 ==")
for family in ("B", "C", "D"):
    res = tensor_decompose((2, 1), (1, 1), GroupSpec(family, 6))
    terms = ", ".join(f"{render(nu) or '()'}:{m}" for nu, m in res.terms.items())
    print(f"  {family}: {terms}")
print("  (identical term maps: lengths 2 + 2 fit rank 6, so the product is stable,")
print("   and stable multiplicities never see the family; below the stable rank")
print("   the output is the stable product filtered by length, not exact)")

print()
print("== rank effects for the even orthogonal family ==")
res = tensor_decompose((1,), (1,), GroupSpec("D", 2))
print(f"  terms        : {[(render(n) or '()', m) for n, m in res.terms.items()]}")
print(f"  inadmissible : {[(render(n) or '()', m) for n, m in res.inadmissible.items()]}")
print(f"  stable       : {res.stable}")
print("  (a full-length weight cannot keep its last coordinate zero)")

print()
print("== where one coefficient comes from ==")
lam = (2, 2)
value = nl_coefficient(lam, lam, lam)
print(f"  N[{lam}, {lam} -> {lam}] = {value}, assembled from:")
for alpha, beta, gamma in nl_sum_support(lam, lam, lam):
    print(f"    alpha={render(alpha) or '()'} beta={render(beta) or '()'} "
          f"gamma={render(gamma) or '()'}")
