//! Schema validation: the §5.2 out-of-envelope detector.
//!
//! The base schema encodes what the (simulated) automation stack can
//! represent. Validating a model against it yields
//! [`SchemaViolation`]s for unknown kinds, unknown or missing attributes,
//! wrong attribute types, and relations between kinds the schema does not
//! allow — the early warning the paper describes: "we had no existing way
//! to model them. We made these discoveries much earlier than if we had
//! had to study our (imperative) software."

use crate::model::{AttrValue, EntityKind, RelationKind, TwinModel};
use std::collections::{BTreeMap, BTreeSet};

/// Expected attribute type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// String attribute.
    Str,
    /// Numeric attribute.
    Num,
    /// Boolean attribute.
    Bool,
}

impl AttrType {
    fn matches(&self, v: &AttrValue) -> bool {
        matches!(
            (self, v),
            (AttrType::Str, AttrValue::Str(_))
                | (AttrType::Num, AttrValue::Num(_))
                | (AttrType::Bool, AttrValue::Bool(_))
        )
    }
}

/// Per-kind attribute spec.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KindSpec {
    /// Required attributes and their types.
    pub required: BTreeMap<String, AttrType>,
    /// Optional attributes and their types.
    pub optional: BTreeMap<String, AttrType>,
}

/// The schema: known kinds and allowed relations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schema {
    /// Known entity kinds.
    pub kinds: BTreeMap<EntityKind, KindSpec>,
    /// Allowed (relation, from-kind, to-kind) triples.
    pub relations: BTreeSet<(RelationKind, EntityKind, EntityKind)>,
}

/// A representation failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaViolation {
    /// The model uses a kind the schema does not know.
    UnknownKind {
        /// Offending entity.
        entity: String,
        /// Its kind.
        kind: String,
    },
    /// Required attribute missing.
    MissingAttr {
        /// Offending entity.
        entity: String,
        /// Missing attribute name.
        attr: String,
    },
    /// Attribute not in the schema for this kind.
    UnknownAttr {
        /// Offending entity.
        entity: String,
        /// Unknown attribute name.
        attr: String,
    },
    /// Attribute has the wrong type.
    WrongType {
        /// Offending entity.
        entity: String,
        /// Attribute name.
        attr: String,
    },
    /// Relation between kinds the schema does not allow.
    DisallowedRelation {
        /// Relation kind.
        relation: String,
        /// From kind.
        from: String,
        /// To kind.
        to: String,
    },
}

impl Schema {
    /// The base schema the toolkit's own lowering produces.
    pub fn base() -> Self {
        use AttrType::*;
        use EntityKind as K;
        use RelationKind as R;
        let mut kinds: BTreeMap<EntityKind, KindSpec> = BTreeMap::new();
        let mut spec = |k: K, req: &[(&str, AttrType)], opt: &[(&str, AttrType)]| {
            kinds.insert(
                k,
                KindSpec {
                    required: req.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
                    optional: opt.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
                },
            );
        };
        spec(K::Hall, &[("rows", Num), ("slots_per_row", Num)], &[]);
        spec(K::Row, &[("index", Num)], &[]);
        spec(
            K::Rack,
            &[("slot", Num), ("x", Num), ("y", Num)],
            &[("conjoined_with", Str)],
        );
        spec(
            K::Switch,
            &[("radix", Num), ("speed_g", Num), ("layer", Num)],
            &[("block", Num), ("role", Str)],
        );
        spec(
            K::Cable,
            &[("media", Str), ("speed_g", Num), ("length_m", Num)],
            &[("slack_m", Num), ("od_mm", Num)],
        );
        spec(K::Bundle, &[("members", Num), ("length_m", Num)], &[]);
        spec(
            K::TraySegment,
            &[("capacity_mm2", Num), ("used_mm2", Num)],
            &[],
        );
        spec(
            K::IndirectionSite,
            &[("kind", Str), ("ports", Num), ("ports_used", Num)],
            &[],
        );
        spec(K::PowerFeed, &[("capacity_w", Num)], &[]);

        let mut relations = BTreeSet::new();
        for (r, f, t) in [
            (R::Contains, K::Hall, K::Row),
            (R::Contains, K::Row, K::Rack),
            (R::Contains, K::Rack, K::Switch),
            (R::Contains, K::Rack, K::IndirectionSite),
            (R::Contains, K::Bundle, K::Cable),
            (R::ConnectsTo, K::Cable, K::Switch),
            (R::ConnectsTo, K::Cable, K::IndirectionSite),
            (R::RoutesThrough, K::Cable, K::TraySegment),
            (R::FedBy, K::Rack, K::PowerFeed),
        ] {
            relations.insert((r, f, t));
        }
        Self { kinds, relations }
    }

    /// Validates a model, returning all representation failures.
    pub fn validate(&self, model: &TwinModel) -> Vec<SchemaViolation> {
        let mut out = Vec::new();
        for e in model.entities.values() {
            let Some(spec) = self.kinds.get(&e.kind) else {
                out.push(SchemaViolation::UnknownKind {
                    entity: e.id.0.clone(),
                    kind: e.kind.to_string(),
                });
                continue;
            };
            for (name, ty) in &spec.required {
                match e.attrs.get(name) {
                    None => out.push(SchemaViolation::MissingAttr {
                        entity: e.id.0.clone(),
                        attr: name.clone(),
                    }),
                    Some(v) if !ty.matches(v) => out.push(SchemaViolation::WrongType {
                        entity: e.id.0.clone(),
                        attr: name.clone(),
                    }),
                    _ => {}
                }
            }
            for (name, v) in &e.attrs {
                match (spec.required.get(name), spec.optional.get(name)) {
                    (None, None) => out.push(SchemaViolation::UnknownAttr {
                        entity: e.id.0.clone(),
                        attr: name.clone(),
                    }),
                    (_, Some(ty)) if !ty.matches(v) => out.push(SchemaViolation::WrongType {
                        entity: e.id.0.clone(),
                        attr: name.clone(),
                    }),
                    _ => {}
                }
            }
        }
        for r in &model.relations {
            let (Some(f), Some(t)) = (model.entity(&r.from), model.entity(&r.to)) else {
                continue; // dangling handled by the model itself
            };
            let triple = (r.kind.clone(), f.kind.clone(), t.kind.clone());
            if !self.relations.contains(&triple) {
                out.push(SchemaViolation::DisallowedRelation {
                    relation: format!("{:?}", r.kind),
                    from: f.kind.to_string(),
                    to: t.kind.to_string(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AttrValue, TwinModel};

    fn n(v: f64) -> AttrValue {
        AttrValue::Num(v)
    }

    #[test]
    fn well_formed_model_validates() {
        let mut m = TwinModel::new();
        let rack = m.add_entity(
            "rack0",
            EntityKind::Rack,
            [("slot", n(0.0)), ("x", n(0.3)), ("y", n(1.2))],
        );
        let sw = m.add_entity(
            "sw0",
            EntityKind::Switch,
            [("radix", n(32.0)), ("speed_g", n(100.0)), ("layer", n(0.0))],
        );
        m.relate(RelationKind::Contains, &rack, &sw);
        assert!(Schema::base().validate(&m).is_empty());
    }

    #[test]
    fn novel_kind_is_caught() {
        let mut m = TwinModel::new();
        m.add_entity(
            "fso0",
            EntityKind::Custom("FreeSpaceOptic".into()),
            [("power_mw", n(5.0))],
        );
        let v = Schema::base().validate(&m);
        assert!(matches!(
            v.as_slice(),
            [SchemaViolation::UnknownKind { .. }]
        ));
    }

    #[test]
    fn missing_and_unknown_attrs_caught() {
        let mut m = TwinModel::new();
        m.add_entity(
            "sw0",
            EntityKind::Switch,
            [("radix", n(32.0)), ("color", n(1.0))],
        );
        let v = Schema::base().validate(&m);
        assert_eq!(v.len(), 3); // missing speed_g, missing layer, unknown color
        assert!(v
            .iter()
            .any(|x| matches!(x, SchemaViolation::MissingAttr { attr, .. } if attr == "speed_g")));
        assert!(v
            .iter()
            .any(|x| matches!(x, SchemaViolation::UnknownAttr { attr, .. } if attr == "color")));
    }

    #[test]
    fn wrong_type_caught() {
        let mut m = TwinModel::new();
        m.add_entity(
            "sw0",
            EntityKind::Switch,
            [
                ("radix", AttrValue::Str("thirty-two".into())),
                ("speed_g", n(100.0)),
                ("layer", n(0.0)),
            ],
        );
        let v = Schema::base().validate(&m);
        assert!(
            matches!(v.as_slice(), [SchemaViolation::WrongType { attr, .. }] if attr == "radix")
        );
    }

    #[test]
    fn disallowed_relation_caught() {
        let mut m = TwinModel::new();
        let a = m.add_entity(
            "sw0",
            EntityKind::Switch,
            [("radix", n(32.0)), ("speed_g", n(100.0)), ("layer", n(0.0))],
        );
        let b = m.add_entity(
            "sw1",
            EntityKind::Switch,
            [("radix", n(32.0)), ("speed_g", n(100.0)), ("layer", n(0.0))],
        );
        // Switch "contains" switch: not a thing.
        m.relate(RelationKind::Contains, &a, &b);
        let v = Schema::base().validate(&m);
        assert!(matches!(
            v.as_slice(),
            [SchemaViolation::DisallowedRelation { .. }]
        ));
    }

    #[test]
    fn schema_extension_fixes_novel_kind() {
        let mut m = TwinModel::new();
        m.add_entity(
            "fso0",
            EntityKind::Custom("FreeSpaceOptic".into()),
            [("power_mw", n(5.0))],
        );
        let mut schema = Schema::base();
        let mut spec = KindSpec::default();
        spec.required.insert("power_mw".into(), AttrType::Num);
        schema
            .kinds
            .insert(EntityKind::Custom("FreeSpaceOptic".into()), spec);
        assert!(schema.validate(&m).is_empty());
    }
}
