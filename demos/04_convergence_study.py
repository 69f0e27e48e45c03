"""The headline measurement: fitted convergence rates over an eps sweep.

Runs the smooth heterogeneous benchmark (sinusoidal scattering coefficient,
unit absorption and source, zero inflow) over eps = 2^-1 .. 2^-6 with the
mesh tied to eps, then prints every error column and its fitted slope:

  err_total  : distance of the transport solution to the diffusion limit
  err_fluct  : distance to its own velocity average
  bdry       : |mu|-weighted outflow trace
  deriv      : directional derivative (stays O(1))
  remainder  : error after subtracting the first-order corrector
  err_l1/l4  : the same distance in L1 and L4
  energy_ratio : solution side of the energy identity over its data bound
  max_abs    : max |u| (the a priori L-infinity bound)
"""

from translimit import (
    CoefficientField,
    Grid1D,
    ProblemSpec,
    assemble_scattering,
    build_angular_quadrature,
    convergence_study,
    kernel_isotropic,
)


def main():
    problem = ProblemSpec(
        grid=Grid1D(1.0, 64),
        sigma=CoefficientField.sinusoid(1.0, 0.5, 1.0),
        gamma=CoefficientField.constant(1.0),
        source=CoefficientField.constant(1.0),
    )
    op = assemble_scattering(kernel_isotropic(), build_angular_quadrature(16))
    eps = [2.0**-k for k in range(1, 7)]
    report = convergence_study(problem, eps, op)

    names = list(report.columns)
    print("eps        " + "".join(f"{n:>13s}" for n in names))
    for i, e in enumerate(report.eps):
        row = "".join(f"{report.columns[n][i]:13.4e}" for n in names)
        print(f"2^{-(i + 1):<3d}     " + row)

    print()
    print("fitted slopes (log-log least squares):")
    for name in names:
        fit = report.slopes[name]
        print(f"  {name:12s} {fit.slope:6.3f}  (stderr {fit.stderr:.3f})")
    print()
    print("err_total, err_fluct and remainder sit near slope 1; the outflow")
    print("trace also decays at first order here because the inflow is zero,")
    print("below its square-root upper bound; deriv stays bounded (slope ~0).")
    print("energy_ratio and max_abs, which the paper bounds uniformly in eps,")
    print("shrink along the sweep.")


if __name__ == "__main__":
    main()
