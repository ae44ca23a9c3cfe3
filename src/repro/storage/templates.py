"""Lifecycle template store.

Fig. 2's data tier includes "Lifecycle templates": reusable lifecycle models
(quality plans) that project managers instantiate and customise per resource.
Templates are kept in the paper's self-contained XML form (Table I) so a
template exported from one deployment can be imported into another.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import TemplateError
from ..model.lifecycle import LifecycleModel
from ..serialization.lifecycle_xml import lifecycle_from_xml, lifecycle_to_xml


class TemplateStore:
    """Stores lifecycle templates as self-contained XML documents."""

    def __init__(self):
        #: template id -> {name, xml, resource_types}.
        self._templates: Dict[str, dict] = {}

    def save(self, model: LifecycleModel, template_id: str = None) -> str:
        """Store ``model`` as a template and return the template id."""
        template_id = template_id or model.uri
        self._templates[template_id] = {
            "name": model.name,
            "xml": lifecycle_to_xml(model),
            "resource_types": list(model.suggested_resource_types),
        }
        return template_id

    def load(self, template_id: str) -> LifecycleModel:
        template = self._templates.get(template_id)
        if template is None:
            raise TemplateError("no lifecycle template {!r}".format(template_id))
        return lifecycle_from_xml(template["xml"])

    def instantiate(self, template_id: str, name: str = None) -> LifecycleModel:
        """Load a template as a fresh model (new URI) ready for customisation."""
        model = self.load(template_id).copy(new_uri=True)
        if name:
            model.name = name
        return model

    def exists(self, template_id: str) -> bool:
        return template_id in self._templates

    def delete(self, template_id: str) -> bool:
        return self._templates.pop(template_id, None) is not None

    def template_ids(self) -> List[str]:
        return sorted(self._templates)

    def catalog(self) -> List[dict]:
        """Template listing for the designer UI (id, name, suggested types)."""
        return [
            {"template_id": template_id, "name": template["name"],
             "resource_types": list(template["resource_types"])}
            for template_id, template in sorted(self._templates.items())
        ]
