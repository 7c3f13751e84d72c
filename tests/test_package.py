import pathlib
import types

import localglauber as lg

RETURN_TYPES = {
    "ContractionReport", "GammaOptimum", "ContractionEstimate", "CoupledStep", "CouplingLayers",
    "ProposalPair", "RoundStats", "CheckReport", "MixingResult", "TVCurve",
}


def test_all_is_explicit_and_complete():
    public = {name for name, obj in vars(lg).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(lg.__all__) == len(set(lg.__all__))
    assert set(lg.__all__) == public
    assert not {"effective_proposal", "effective_proposals", "neighbors_inclusive"} & public
    assert not {"analysis", "coupling", "dynamics", "errors", "exact", "graph"} & set(lg.__all__)


def test_return_types_are_not_exported_but_importable():
    assert not RETURN_TYPES & set(lg.__all__)
    assert all(any(hasattr(getattr(lg, m), name) for m in ("analysis", "coupling", "dynamics", "exact"))
               for name in RETURN_TYPES)


def test_philox_is_built_only_in_the_stream_helper():
    src = pathlib.Path(lg.__file__).parent
    builders = sorted(p.name for p in src.glob("*.py") if "np.random.Philox(" in p.read_text())
    assert builders == ["_stream.py"]
