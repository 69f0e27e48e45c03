"""Assemble the macroscopic diffusion tensor from the velocity model.

The tensor is (1/sigma) sum_i w_i v_i ((I-K)^+ v)(v_i) on the sphere.  For
isotropic scattering it collapses to I/(3 sigma); the linear kernel rescales
it by 1/(1-g).  Heterogeneous sigma simply rescales cell by cell.
"""

import numpy as np

from translimit import (
    CoefficientField,
    Grid1D,
    assemble_scattering,
    build_sphere_quadrature,
    diffusion_tensor,
    kernel_isotropic,
    kernel_linear,
)


def main():
    quad = build_sphere_quadrature(8, 16)

    print("homogeneous sigma = 1")
    for tag, kern, target in (
        ("isotropic", kernel_isotropic(), 1.0 / 3.0),
        ("linear g=0.5", kernel_linear(0.5), 2.0 / 3.0),
        ("linear g=0.9", kernel_linear(0.9), 10.0 / 3.0),
    ):
        op = assemble_scattering(kern, quad)
        tensor = diffusion_tensor(op, [1.0])
        err = np.max(np.abs(tensor.moment - target * np.eye(3)))
        print(f"  {tag:14s} a11 = {tensor.moment[0, 0]:.12f}  "
              f"(closed form {target:.12f}, max dev {err:.1e})")

    print()
    print("two-material slab, sigma = 1 on the left and 4 on the right")
    grid = Grid1D(1.0, 8)
    sigma = CoefficientField.piecewise([0.5], [1.0, 4.0])
    op = assemble_scattering(kernel_isotropic(), quad)
    tensor = diffusion_tensor(op, sigma(grid.centers))
    for x, sg in zip(grid.centers, tensor.sigma):
        print(f"  x = {x:5.3f}   a11 = {tensor.moment[0, 0] / sg:.10f}")
    print(f"  coercivity lower bound over all cells: {tensor.coercivity_lb:.6f}")


if __name__ == "__main__":
    main()
