"""The data tier (Fig. 2).

"At the bottom of the figure we have the data tier, which includes the
repositories for users and roles, resources and actions definitions,
templates, as well as execution logs (including model evolution)."

Each of these has one in-memory home: users and roles in
:mod:`repro.accesscontrol`, action types in the environment's action
registry, resources in its resource manager, templates in
:class:`TemplateStore` and the execution log in :class:`ExecutionLog`.
Durable instance state lives in :mod:`repro.persistence`, which writes
through :mod:`.repository`'s crash-safe file helpers.
"""

from .logstore import ExecutionLog, LogEntry
from .templates import TemplateStore

__all__ = [
    "ExecutionLog",
    "LogEntry",
    "TemplateStore",
]
