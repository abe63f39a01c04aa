"""Training-free student-architecture scoring, search, and rank evaluation.

The package scores randomly initialized candidate networks by how well their
attention and sample-relation structure matches a teacher's, searches
architecture spaces with those scores as fitness, and measures how proxy
rankings correlate with trained accuracy tables.
"""

__version__ = "0.1.0"
