import types

import localglauber as lg


def test_all_is_explicit_and_complete():
    public = {name for name, obj in vars(lg).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert len(lg.__all__) == len(set(lg.__all__))
    assert set(lg.__all__) == public
    assert not {"effective_proposal", "effective_proposals", "neighbors_inclusive"} & public
    assert not {"analysis", "coupling", "dynamics", "errors", "exact", "graph"} & set(lg.__all__)
