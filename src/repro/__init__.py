"""ConCH reproduction: meta-path context GNNs for HIN classification.

Reproduces "Leveraging Meta-path Contexts for Classification in
Heterogeneous Information Networks" (Li, Ding, Kao, Sun, Mamoulis;
ICDE 2021) entirely in numpy/scipy — including the neural-network
substrate, the HIN algorithms, synthetic stand-ins for the paper's
datasets, the ConCH model, and the baseline zoo.

Quickstart
----------
>>> from repro import api
>>> from repro.data import load_dataset, stratified_split
>>> dataset = load_dataset("dblp")
>>> split = stratified_split(dataset.labels, train_fraction=0.2)
>>> estimator = api.fit(dataset, model="conch", split=split)
>>> estimator.evaluate(split.test)  # doctest: +SKIP
{'micro_f1': 0.94, 'macro_f1': 0.93}

``model=`` accepts any registry baseline ("HAN", "GCN", ...) through the
same :class:`~repro.api.Estimator` contract.  For staged, resumable runs
and per-node serving::

    pipe = api.Pipeline("dblp", store_dir="runs/dblp")
    est = pipe.fit(train_fraction=0.2)      # rerun -> all stages skip
    est.save("conch.npz")                   # one self-contained bundle
    api.ModelHandle.load("conch.npz").predict_nodes([0, 7])
    api.load_estimator("conch.npz").predict()   # heap reload, same answers

Everything the library saves — bundles, stage artifacts, cached
products, model checkpoints — is one archive format (an uncompressed
``.npz`` with a JSON header; :func:`repro.hin.cache.write_archive` /
:func:`~repro.hin.cache.read_archive`).  ``ModelHandle.load`` maps a
bundle through a replica it builds on first load in ``conch.npz.mmap/``.

Under traffic, front the handle with the serving subsystem
(:mod:`repro.serve`): a micro-batching ``ModelServer`` coalesces
concurrent queries into union-slice forwards, sheds load past a bounded
queue, and serves operators from a memory-mapped tier that co-located
workers share at ~zero marginal resident memory.

The pre-pipeline surface (``prepare_conch_data`` + ``ConCHTrainer``)
keeps working as thin shims over the pipeline.
"""

__version__ = "1.3.0"

__all__ = [
    "autograd", "nn", "hin", "data", "embedding", "core", "eval", "api",
    "serve", "__version__",
]
