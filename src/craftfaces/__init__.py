"""Desk-scale graffiti-face pipeline with exactly testable identity
preservation: toy denoising diffusion, low-rank adapters, identity-aware
attention, Gram style losses, and a synthetic face oracle whose attribute
extractor inverts the renderer exactly."""

__version__ = "0.1.0"
