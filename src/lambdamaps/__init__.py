"""Bijections between planar linear normal lambda terms and rooted planar
maps, with exhaustive desk-scale enumeration oracles."""
