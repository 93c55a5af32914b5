"""Energy-based variational latent priors for VAEs.

Two-stage pipeline: train a VAE, then learn an exponentially tilted
Gaussian prior in its latent space jointly with a normalizing-flow
sampler, using an alternating critic/sampler optimization. Generation is
a single flow pass or energy-guided sampling-importance-resampling.
"""

__version__ = "0.1.0"
