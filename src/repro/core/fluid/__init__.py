"""Fluid (delay-ODE) models and the fixed-step DDE integrator.

Models: :class:`~repro.core.fluid.dcqcn.DCQCNFluidModel` (Fig. 1, with
the Eq. 32 switch-side PI marker as constructor data),
:class:`~repro.core.fluid.timely.TimelyFluidModel` (Fig. 7, with the
Eq. 28, Eq. 29, host-side PI and measurement-noise variants as
constructor data), and the window-based baseline
:class:`~repro.core.fluid.dctcp.DCTCPFluidModel`.
Integrate any of them with :func:`repro.core.fluid.dde.integrate`.
"""
