"""Why the accelerated solve is not optional.

Plain source iteration contracts like the scattering ratio, which approaches
one as eps shrinks.  The default solve runs GMRES on the fixed point of one
sweep plus the synthetic-diffusion correction, checks the result with a
full step, and keeps the sweep count flat.  This script tabulates both sweep counts
across eps, and the accelerated count for the linear kernel with g = 0.5
and g = 0.9.  For that kernel the correction also carries the current: the
Fick current of the scalar correction plus the sweep's own first-moment
scattering residual (P1 synthetic acceleration), without which the
current's error would fall only by about g per sweep and the g = 0.9 count
would be the larger one.  Every count is of transport sweeps, Krylov
sweeps included.
"""

from translimit import (
    CoefficientField,
    ConvergenceError,
    Grid1D,
    ProblemSpec,
    SolverOptions,
    assemble_scattering,
    build_angular_quadrature,
    kernel_isotropic,
    kernel_linear,
    solve_transport,
)


def main():
    quad = build_angular_quadrature(16)
    op = assemble_scattering(kernel_isotropic(), quad)
    linear = [assemble_scattering(kernel_linear(g), quad) for g in (0.5, 0.9)]
    problem = ProblemSpec(
        grid=Grid1D(1.0, 128),
        sigma=CoefficientField.constant(1.0),
        gamma=CoefficientField.constant(1.0),
        source=CoefficientField.constant(1.0),
    )

    print("eps      dsa sweeps   dsa sweeps g=0.5   dsa sweeps g=0.9     plain sweeps"
          "   plain last change")
    for k in (1, 2, 3, 4, 5, 6):
        eps = 2.0**-k
        acc = solve_transport(problem, eps, op)
        acc_linear = [solve_transport(problem, eps, lin).log.iterations for lin in linear]
        try:
            plain = solve_transport(
                problem, eps, op,
                SolverOptions(acceleration="none", max_iterations=2000))
            plain_its = f"{plain.log.iterations:10d}"
            last = f"{plain.log.residuals[-1]:.1e}"
        except ConvergenceError as exc:
            plain_its = f"{exc.log.iterations:6d} (max)"
            last = f"{exc.log.residuals[-1]:.1e}"
        print(f"2^-{k}    {acc.log.iterations:10d}   {acc_linear[0]:16d}   {acc_linear[1]:16d}"
              f"   {plain_its:>14s}   {last:>17s}")

    print()
    print("The accelerated count stays flat while the plain iteration stalls:")
    print("its contraction factor behaves like 1 - eps^2 in this regime.")


if __name__ == "__main__":
    main()
