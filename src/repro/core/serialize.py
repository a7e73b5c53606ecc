"""ConCH model checkpointing.

Saves everything needed to reconstruct a trained model — the
:class:`~repro.core.config.ConCHConfig`, the constructor dimensions, and
every parameter array — into one archive of the repo's single format
(:func:`repro.hin.cache.write_archive`).  The preprocessed
:class:`~repro.core.trainer.ConCHData` is *not* stored (it is derived
from the dataset; regenerate it with the saved config's ``k``/strategy
to guarantee matching operators).

Example
-------
>>> save_model(trainer.model, "conch.npz")          # doctest: +SKIP
>>> model = load_model("conch.npz")                 # doctest: +SKIP
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from repro.core.config import ConCHConfig
from repro.core.model import ConCH
from repro.hin.cache import read_archive, write_archive

#: Bumped when the archive layout changes.
FORMAT_VERSION = 1


def model_header(model: ConCH) -> dict:
    """Reconstruction metadata of a ConCH model: config + constructor dims.

    The first conv layer's input dims are the constructor's
    feature/context dims; in ConCH_nc mode (NeighborConv) there is no
    context input, but the constructor still needs a value — the config's
    context_dim matches what the trainer passed.
    """
    first = model.towers[0].layers[0]
    feature_dim = getattr(first, "object_in_dim", None)
    if feature_dim is None:
        feature_dim = first.in_dim
    context_dim = getattr(first, "context_in_dim", model.config.context_dim)
    return {
        "format_version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.config),
        "feature_dim": int(feature_dim),
        "context_dim": int(context_dim),
        "num_metapaths": int(model.num_metapaths),
        "num_classes": int(model.num_classes),
    }


def model_param_arrays(model: ConCH) -> dict:
    """``param/<name>`` arrays of a model's state dict (archive payload)."""
    return {f"param/{name}": value for name, value in model.state_dict().items()}


def model_from_archive(header: dict, arrays: Mapping[str, np.ndarray]) -> ConCH:
    """Rebuild a ConCH model from its header + an archive's arrays."""
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint format {version} not supported (expected {FORMAT_VERSION})"
        )
    config = ConCHConfig(**header["config"])
    model = ConCH(
        feature_dim=header["feature_dim"],
        context_dim=header["context_dim"],
        num_metapaths=header["num_metapaths"],
        num_classes=header["num_classes"],
        config=config,
        rng=np.random.default_rng(config.seed),
    )
    state = {
        key[len("param/"):]: value
        for key, value in arrays.items()
        if key.startswith("param/")
    }
    model.load_state_dict(state)
    model.eval()
    return model


def save_model(model: ConCH, path: Union[str, Path]) -> None:
    """Write a trained ConCH model to ``path`` (``.npz``)."""
    write_archive(path, model_header(model), model_param_arrays(model))


def load_model(path: Union[str, Path]) -> ConCH:
    """Reconstruct a ConCH model saved by :func:`save_model`."""
    loaded = read_archive(path)
    if loaded is None:
        raise ValueError(
            f"{path} is not a ConCH checkpoint (missing header or corrupt file)"
        )
    return model_from_archive(*loaded)
