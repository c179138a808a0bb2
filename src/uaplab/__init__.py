"""uaplab: a numerical laboratory for constructive universal approximation.

Modules:
    function_space      grids, functions, measures, metrics and norms
    activations         piecewise-analytic activations + transitivity analysis
    network             feed-forward nets, indicator trees, shallow fitting
    depth_dynamics      iterated composition operators and certificates
    constrained_approx  nets with prescribed/constrained final segments
    omega_modification  weighted-uniform approximation on all of R^m
    rate_bounds         convex-hull rates, pushforward densities
    free_space          signed-indicator embedding and barycenters
    cli                 batch experiment runner
"""

# The kernels in ``_kernels`` (activation evaluation and inversion, the
# iterated map S^N, indicator trees) have one numpy implementation.
# ``kernel_backend`` names it.  It is a constant, not a switch, and stays
# because ``uapbench/run.py`` writes it into every ``env.json``.
kernel_backend = "numpy"

__version__ = "0.1.0"
__all__ = ["kernel_backend", "__version__"]
