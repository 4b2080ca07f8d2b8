"""Weyl classification and local exponents of the radial equation.

The radial Sturm-Liouville equation degenerates at both ends of (0, 1); how
badly depends on the sphere dimension k.  This script prints the endpoint
classification table (regular / limit circle / limit point), the Frobenius
indicial exponents with their logarithmic-case flags, and the Weyl class of
the Liouville normal form at both ends, read from the inverse-square
coefficient c of its effective potential.  At tau = pi R / 2, k = 2 sits on
the double exponent 1/2 (c = -1/4, limit circle with a logarithm) and k = 3
on the threshold c = 3/4 (limit point).  Power-law probes of the
coefficients 1e-7 interval widths from that end read the exponents as
(0.576, 0.424) and (1.491, -0.491), and call k = 3 limit circle: V_eff
loses about 1 % there to the cancellation in 1 / sin(tau / R)^2 - 1.
"""

from loopsphere import manifold, radial


def main():
    print(f"{'k':>2} {'t=0':>14} {'exps@0':>16} {'log':>4} "
          f"{'t=1':>14} {'exps@1':>16} {'log':>4}")
    for k in range(2, 9):
        params = manifold.ModelParams(k=k)
        reports = radial.classify_endpoints(params)
        r0, r1 = reports[0.0], reports[1.0]

        def fmt(rep):
            mu = sorted(rep.exponents)
            return (rep.kind.value, f"{{{mu[0]:.2f}, {mu[1]:.2f}}}",
                    "yes" if rep.log_case else "no")

        k0, e0, l0 = fmt(r0)
        k1, e1, l1 = fmt(r1)
        print(f"{k:>2} {k0:>14} {e0:>16} {l0:>4} {k1:>14} {e1:>16} {l1:>4}")
    print()
    print("Closed forms: exponents {0, (3-k)/2} at t=0 and {0, 2-k} at t=1;")
    print("boundary conditions are needed exactly at regular and")
    print("limit-circle endpoints.")
    print()
    print("Liouville form -F'' + V F, V ~ c/d^2 at each end (regular iff c = 0,")
    print("limit point iff c >= 3/4):")
    for k in (2, 3, 4, 5):
        params = manifold.ModelParams(k=k)
        prob = radial.liouville_problem(params)
        cells = []
        for name, end, rep in zip(("tau=0", "tau=pi R/2"), prob.interval, prob.endpoints):
            c = radial.veff_inverse_square(params, end)
            mu = tuple(round(v, 3) for v in sorted(rep.exponents))
            log = ", log" if rep.log_case else ""
            cells.append(f"at {name} c={c:g} {mu} {rep.kind.value}{log}")
        print(f"  k={k}: " + "; ".join(cells))


if __name__ == "__main__":
    main()
