"""The staged kick-drift-kick (Stormer-Verlet) of a Hamiltonian with partials ``dy`` and ``dp``.

The step reads y and p only through the Hamiltonian and ``+``, ``-`` and
``*``, so one body steps float arrays (..., d) and Python floats in the
same operation order: ``manifold.integrate`` runs it over arrays, and
table 3 over floats, without loading numpy.
"""


def staged(hamiltonian, y, p, h, n_steps, energies, failure):
    """Nodes (y, p, H or None) of the staged kick-drift-kick from the partials ``dy`` and ``dp``."""
    for k in range(n_steps + 1):
        if k:
            p_half = p - 0.5 * h * hamiltonian.dy(y, p)
            y = y + h * hamiltonian.dp(y, p_half)
            p = p_half - 0.5 * h * hamiltonian.dy(y, p_half)
        yield y, p, hamiltonian(y, p) if energies else None
