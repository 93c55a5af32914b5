"""Energy-based variational latent priors for VAEs.

Two-stage pipeline: train a VAE, then learn an exponentially tilted
Gaussian prior in its latent space jointly with a normalizing-flow
sampler, using an alternating critic/sampler optimization. Generation is
a single flow pass or energy-guided sampling-importance-resampling.
"""

from .diffcore import Adam, AdamState, Tensor, adam_step, backward, forward_op, gradcheck, no_grad
from .gauss import DiagGaussian, kl_to_standard, log_pdf, reparameterize, standard_normal
from .models import (
    CouplingLayer,
    EnergyFunction,
    FlowSampler,
    Mlp,
    MlpSpec,
    VaeModel,
    energy_input_grad,
    vae_decode,
    vae_encode,
)
from .rng import Rng

__version__ = "0.1.0"
