"""Certify scattering operators on the slab and sphere velocity sets.

Builds the isotropic and linearly anisotropic kernels, inspects the spectrum
of I - K in the weighted inner product, and shows how the degenerate g = 1
kernel is rejected because the mean-free part of mu joins the null space.
Each line names the operator's rank r: the spectrum comes from an r x r core
(r = 1 isotropic, r = 1 + d linear), with the eigenvalue 1 on the rest.
"""

import numpy as np

from translimit import (
    assemble_scattering,
    build_angular_quadrature,
    build_sphere_quadrature,
    certify_assumptions,
    kernel_isotropic,
    kernel_linear,
)


def show(tag, op):
    report = certify_assumptions(op)
    eig = report.eigenvalues
    ck = f"{report.c_K:.6g}" if np.isfinite(report.c_K) else "inf"
    print(f"{tag:28s} rank={op.rank}/{op.n}  null_dim={report.null_space_dim}  "
          f"c_K={ck}  spectrum=[{eig[0]:.2e} .. {eig[-1]:.6f}]  "
          f"{'pass' if report.all_passed else 'FAIL'}")
    for msg in report.diagnostics:
        print(f"{'':28s}   note: {msg}")


def main():
    slab = build_angular_quadrature(16)
    sphere = build_sphere_quadrature(8, 16)

    print("slab quadrature, 16 ordinates")
    show("  isotropic", assemble_scattering(kernel_isotropic(), slab))
    for g in (0.3, 0.5, 0.9):
        show(f"  linear g={g}", assemble_scattering(kernel_linear(g), slab))
    show("  linear g=1.0 (degenerate)", assemble_scattering(kernel_linear(1.0), slab))

    print()
    print("sphere quadrature, 8 x 16 points")
    show("  isotropic", assemble_scattering(kernel_isotropic(), sphere))
    show("  linear g=0.5", assemble_scattering(kernel_linear(0.5), sphere))

    print()
    print("The reciprocal of the smallest nonzero eigenvalue is the stability")
    print("constant of the pseudoinverse: 1 for isotropic scattering and")
    print("1/(1-g) for the linear kernel.")


if __name__ == "__main__":
    main()
