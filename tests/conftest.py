"""Shared fixtures."""

import pytest

from trigratio import derivatives


@pytest.fixture
def mutate_table(monkeypatch):
    """Replace `derivatives.exact_sin_comb_form` for one test by one whose
    general table (its sum table where general=False, both where None), for
    the given families, has its last weight moved away from 0 by delta (in
    the general table, that of its highest frequency), its first weight scaled by
    scale and its factor by factor; the other tables stay intact.  The caches
    built from the tables (`_clear`) are emptied on both sides, so no entry
    built from the mutation outlives the test."""
    table = derivatives.exact_sin_comb_form

    def mutate(families, delta=0, scale=1, factor=1, general=True):
        def mutated(family, p, form):
            terms, f = table(family, p, form)
            if general not in (form, None) or family not in families:
                return terms, f
            (w0, c0), *rest = terms
            *head, (w, c) = ((w0 * scale, c0), *rest)
            return (*head, (w + (delta if w > 0 else -delta), c)), f * factor

        _clear()
        monkeypatch.setattr(derivatives, "exact_sin_comb_form", mutated)

    yield mutate
    _clear()


@pytest.fixture
def fresh_caches():
    """Empty the caches of `_clear` before and after a test that patches what
    they are built from itself."""
    _clear()
    yield
    _clear()


def _clear():
    """Empty the caches built from D's tables or from `cheb_u`: `sin_comb_form`,
    `termwise_sign`, `_falsifying_witness`, D's series `_table_d_series`, the
    sum form's lemma `_sum_form_lemma` and the exact identity checks."""
    derivatives.sin_comb_form.cache_clear()
    derivatives.termwise_sign.cache_clear()
    derivatives._falsifying_witness.cache_clear()
    derivatives._table_d_series.cache_clear()
    derivatives._sum_form_lemma.cache_clear()
    derivatives._general_vs_sum.cache_clear()
    derivatives._dirichlet_check.cache_clear()
    derivatives._chebyshev_check.cache_clear()
