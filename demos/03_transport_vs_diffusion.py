"""Watch the scaled transport solution approach its diffusion limit.

Solves the transport problem at a few values of the scaling parameter and
compares the velocity average with the limit profile along the slab.  The
gap at mid-slab and the L2 distance both shrink linearly in eps.
"""

import dataclasses

from translimit import (
    CoefficientField,
    Grid1D,
    ProblemSpec,
    assemble_scattering,
    build_angular_quadrature,
    cells_for_eps,
    kernel_isotropic,
    solve_diffusion,
    solve_transport,
    space_velocity_norm,
)


def main():
    base = ProblemSpec(
        grid=Grid1D(1.0, 64),
        sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0),
        gamma=CoefficientField.constant(1.0),
        source=CoefficientField.constant(1.0),
    )
    quad = build_angular_quadrature(16)
    op = assemble_scattering(kernel_isotropic(), quad)

    print("eps      cells  iterations   |u_eps - u0|_L2   mid-slab gap")
    for k in (1, 2, 3, 4, 5, 6):
        eps = 2.0**-k
        n = cells_for_eps(eps, base.grid.length)
        problem = dataclasses.replace(base, grid=Grid1D(1.0, n))
        diffusion = solve_diffusion(problem, op)
        transport = solve_transport(problem, eps, op)
        u0 = diffusion.at_centers()
        err = space_velocity_norm(transport.u - u0[:, None], problem.grid, quad)
        gap = abs(transport.u_bar[n // 2] - u0[n // 2])
        print(f"2^-{k}    {n:5d}  {transport.log.iterations:10d}   "
              f"{err:14.6e}   {gap:12.6e}")

    print()
    print("Both columns drop by a factor close to 2 per halving of eps,")
    print("the first-order approach to the diffusion limit.")


if __name__ == "__main__":
    main()
