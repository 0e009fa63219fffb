"""``python -m surveyguard``: the same CLI as the ``surveyguard`` script."""

from .cli import entry

entry()
