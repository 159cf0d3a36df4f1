import types

import divprog


def test_all_names_the_public_api_and_no_submodules():
    assert len(divprog.__all__) == len(set(divprog.__all__))
    for name in divprog.__all__:
        assert not isinstance(getattr(divprog, name), types.ModuleType), name
    namespace = {}
    exec("from divprog import *", namespace)
    assert set(divprog.__all__) <= set(namespace)
    from divprog import arith, kloosterman, tausieve  # submodules stay importable as attributes

    assert isinstance(kloosterman, types.ModuleType)
    assert kloosterman.kloosterman_table is divprog.kloosterman_table
    assert arith.factorize is divprog.factorize
    assert tausieve.sieve_tau is divprog.sieve_tau
