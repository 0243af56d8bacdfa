"""creditchain — a deterministic ledger simulator for privacy-preserving
credit reporting.

Importing the package registers all built-in contract kinds (identity
registry, credit account, record factory, public record) with the ledger,
so `Ledger.replay` can reconstruct any exported history.  Names are
imported from their modules, e.g. ``creditchain.ledger.Ledger``.
"""

from . import credit_account, identity, public_records  # each registers its contract kinds

__version__ = "0.1.0"
