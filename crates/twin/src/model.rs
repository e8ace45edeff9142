//! The declarative entity-relation model.
//!
//! Modeled on MALT \[36\]: entities have a *kind*, a stable string id, and a
//! bag of typed attributes; relations are typed edges between entities.
//! Everything is data — no behavior — which is §5.2's point: "by moving
//! knowledge about a design out of automation code, and into a declarative
//! data representation", unsupported designs surface as representation
//! failures instead of buried code assumptions.

use std::collections::BTreeMap;

/// Entity kinds. `Custom` exists so *novel* designs can try to represent
/// themselves — and be caught by schema validation, which is the detection
/// mechanism the paper describes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EntityKind {
    /// The hall itself.
    Hall,
    /// A rack row.
    Row,
    /// A rack.
    Rack,
    /// A network switch.
    Switch,
    /// A physical cable.
    Cable,
    /// A pre-built cable bundle.
    Bundle,
    /// A tray segment.
    TraySegment,
    /// A patch panel or OCS.
    IndirectionSite,
    /// A power feed.
    PowerFeed,
    /// A kind the base schema does not know (novel hardware, new layer).
    Custom(String),
}

impl std::fmt::Display for EntityKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntityKind::Custom(s) => write!(f, "custom:{s}"),
            other => write!(f, "{other:?}"),
        }
    }
}

/// Relation kinds.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RelationKind {
    /// Spatial containment (hall→row→rack→switch).
    Contains,
    /// A cable connects to a switch or site.
    ConnectsTo,
    /// A cable routes through a tray segment.
    RoutesThrough,
    /// A rack is fed by a power feed.
    FedBy,
    /// A custom relation (same detection role as [`EntityKind::Custom`]).
    Custom(String),
}

/// Attribute values.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string.
    Str(String),
    /// A number (all physical quantities are stored as raw f64 in the
    /// twin; units live in the schema docs).
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Stable entity identifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityId(pub String);

impl EntityId {
    /// Builds an id from any displayable value.
    pub fn new(s: impl Into<String>) -> Self {
        Self(s.into())
    }
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// One entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Entity {
    /// Stable id.
    pub id: EntityId,
    /// Kind.
    pub kind: EntityKind,
    /// Attributes (ordered for deterministic diffs).
    pub attrs: BTreeMap<String, AttrValue>,
}

/// One relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Relation {
    /// Kind.
    pub kind: RelationKind,
    /// Source entity.
    pub from: EntityId,
    /// Target entity.
    pub to: EntityId,
}

/// The whole model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TwinModel {
    /// Entities by id (ordered).
    pub entities: BTreeMap<EntityId, Entity>,
    /// Relations (ordered, deduplicated).
    pub relations: Vec<Relation>,
}

impl TwinModel {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entity (replacing any previous one with the same id).
    pub fn add_entity(
        &mut self,
        id: impl Into<String>,
        kind: EntityKind,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) -> EntityId {
        let id = EntityId::new(id);
        self.entities.insert(
            id.clone(),
            Entity {
                id: id.clone(),
                kind,
                attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            },
        );
        id
    }

    /// Adds a relation if both endpoints exist; returns whether it was
    /// added.
    pub fn relate(&mut self, kind: RelationKind, from: &EntityId, to: &EntityId) -> bool {
        if !self.entities.contains_key(from) || !self.entities.contains_key(to) {
            return false;
        }
        let r = Relation {
            kind,
            from: from.clone(),
            to: to.clone(),
        };
        if !self.relations.contains(&r) {
            self.relations.push(r);
        }
        true
    }

    /// Entity lookup.
    pub fn entity(&self, id: &EntityId) -> Option<&Entity> {
        self.entities.get(id)
    }

    /// All entities of a kind.
    pub fn of_kind<'a>(&'a self, kind: &'a EntityKind) -> impl Iterator<Item = &'a Entity> {
        self.entities.values().filter(move |e| &e.kind == kind)
    }

    /// Outgoing relations of an entity, optionally filtered by kind.
    pub fn relations_from<'a>(
        &'a self,
        id: &'a EntityId,
        kind: Option<&'a RelationKind>,
    ) -> impl Iterator<Item = &'a Relation> {
        self.relations
            .iter()
            .filter(move |r| &r.from == id && kind.map(|k| &r.kind == k).unwrap_or(true))
    }

    /// Relations with dangling endpoints (should be none; diff/audit use
    /// this as a corruption check).
    pub fn dangling_relations(&self) -> Vec<&Relation> {
        self.relations
            .iter()
            .filter(|r| !self.entities.contains_key(&r.from) || !self.entities.contains_key(&r.to))
            .collect()
    }

    /// Counts.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Relation count.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: f64) -> AttrValue {
        AttrValue::Num(v)
    }

    #[test]
    fn build_and_query() {
        let mut m = TwinModel::new();
        let rack = m.add_entity("rack0", EntityKind::Rack, [("slot", n(0.0))]);
        let sw = m.add_entity("sw0", EntityKind::Switch, [("radix", n(32.0))]);
        assert!(m.relate(RelationKind::Contains, &rack, &sw));
        assert_eq!(m.entity_count(), 2);
        assert_eq!(m.relation_count(), 1);
        assert_eq!(m.of_kind(&EntityKind::Switch).count(), 1);
        assert_eq!(
            m.relations_from(&rack, Some(&RelationKind::Contains))
                .count(),
            1
        );
        assert_eq!(m.entity(&sw).unwrap().attrs["radix"], n(32.0));
    }

    #[test]
    fn relate_requires_endpoints() {
        let mut m = TwinModel::new();
        let a = m.add_entity("a", EntityKind::Rack, []);
        let ghost = EntityId::new("ghost");
        assert!(!m.relate(RelationKind::Contains, &a, &ghost));
        assert_eq!(m.relation_count(), 0);
        assert!(m.dangling_relations().is_empty());
    }

    #[test]
    fn duplicate_relations_collapse() {
        let mut m = TwinModel::new();
        let a = m.add_entity("a", EntityKind::Rack, []);
        let b = m.add_entity("b", EntityKind::Switch, []);
        assert!(m.relate(RelationKind::Contains, &a, &b));
        assert!(m.relate(RelationKind::Contains, &a, &b));
        assert_eq!(m.relation_count(), 1);
    }

    #[test]
    fn custom_kinds_representable() {
        let mut m = TwinModel::new();
        let e = m.add_entity(
            "fso0",
            EntityKind::Custom("FreeSpaceOptic".into()),
            [("power_mw", n(5.0))],
        );
        assert_eq!(
            m.entity(&e).unwrap().kind,
            EntityKind::Custom("FreeSpaceOptic".into())
        );
    }
}
