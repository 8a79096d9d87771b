"""JSON codecs for the durable-state subsystem's payloads.

Checkpoints and WAL records both need plain-dict forms of the mutable
world: uncertain objects (exact float round-trip — ``json`` emits
``repr`` floats, so re-reading reproduces the bit pattern), position
moves, and topology events.  These are *persistence* codecs, distinct
from the delta wire protocol of :mod:`repro.api.wire`: the wire ships
result changes to subscribers, these ship the inputs that produced
them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import PersistError, ReproError
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.objects.instances import InstanceSet
from repro.objects.population import ObjectMove
from repro.objects.uncertain import UncertainObject
from repro.space.door import DoorDirection
from repro.space.events import (
    CloseDoor,
    MergePartitions,
    OpenDoor,
    SetDoorDirection,
    SplitPartition,
    TopologyEvent,
)


def _location_to_dict(
    region: Circle, instances: InstanceSet
) -> dict[str, Any]:
    return {
        "center": [
            float(region.center.x),
            float(region.center.y),
            int(region.center.floor),
        ],
        "radius": float(region.radius),
        "xy": instances.xy.tolist(),
        "probs": instances.probs.tolist(),
    }


def _location_from_dict(data: dict[str, Any]) -> tuple[Circle, InstanceSet]:
    try:
        x, y, floor = data["center"]
        region = Circle(
            Point(float(x), float(y), int(floor)), float(data["radius"])
        )
        instances = InstanceSet(
            np.asarray(data["xy"], dtype=float),
            int(floor),
            np.asarray(data["probs"], dtype=float),
        )
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise PersistError(f"malformed object location: {exc}") from None
    return region, instances


def object_to_dict(obj: UncertainObject) -> dict[str, Any]:
    """Plain-dict form of an uncertain object (id + region + samples)."""
    out = {"id": obj.object_id}
    out.update(_location_to_dict(obj.region, obj.instances))
    return out


def object_from_dict(data: dict[str, Any]) -> UncertainObject:
    """Inverse of :func:`object_to_dict`; raises ``PersistError``."""
    region, instances = _location_from_dict(data)
    return UncertainObject(str(data["id"]), region, instances)


def move_to_dict(move: ObjectMove) -> dict[str, Any]:
    """Plain-dict form of a position move (id + new location)."""
    out = {"id": move.object_id}
    out.update(_location_to_dict(move.new_region, move.new_instances))
    return out


def move_from_dict(data: dict[str, Any]) -> ObjectMove:
    """Inverse of :func:`move_to_dict`; raises ``PersistError``."""
    region, instances = _location_from_dict(data)
    return ObjectMove(str(data["id"]), region, instances)


# -- topology events ----------------------------------------------------

_EVENT_KINDS = ("split", "merge", "close_door", "open_door", "set_direction")


def event_to_dict(event: TopologyEvent) -> dict[str, Any]:
    """Plain-dict form of a topology event, discriminated by ``event``."""
    if isinstance(event, SplitPartition):
        return {
            "event": "split",
            "partition_id": event.partition_id,
            "axis": event.axis,
            "coord": float(event.coord),
            "new_ids": list(event.new_ids) if event.new_ids else None,
            "connecting_door": bool(event.connecting_door),
            "connecting_door_id": event.connecting_door_id,
        }
    if isinstance(event, MergePartitions):
        return {
            "event": "merge",
            "partition_ids": list(event.partition_ids),
            "new_id": event.new_id,
        }
    if isinstance(event, CloseDoor):
        return {"event": "close_door", "door_id": event.door_id}
    if isinstance(event, OpenDoor):
        return {"event": "open_door", "door_id": event.door_id}
    if isinstance(event, SetDoorDirection):
        return {
            "event": "set_direction",
            "door_id": event.door_id,
            "direction": event.direction.value,
            "from_partition": event.from_partition,
        }
    raise PersistError(
        f"cannot serialize topology event {type(event).__name__}"
    )


def event_from_dict(data: dict[str, Any]) -> TopologyEvent:
    """Inverse of :func:`event_to_dict`; raises ``PersistError``."""
    kind = data.get("event")
    try:
        if kind == "split":
            new_ids = data.get("new_ids")
            return SplitPartition(
                str(data["partition_id"]),
                str(data["axis"]),
                float(data["coord"]),
                new_ids=tuple(new_ids) if new_ids else None,
                connecting_door=bool(data.get("connecting_door", False)),
                connecting_door_id=data.get("connecting_door_id"),
            )
        if kind == "merge":
            ida, idb = data["partition_ids"]
            return MergePartitions(
                (str(ida), str(idb)), new_id=data.get("new_id")
            )
        if kind == "close_door":
            return CloseDoor(str(data["door_id"]))
        if kind == "open_door":
            return OpenDoor(str(data["door_id"]))
        if kind == "set_direction":
            return SetDoorDirection(
                str(data["door_id"]),
                DoorDirection(data["direction"]),
                from_partition=data.get("from_partition"),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistError(
            f"malformed topology event record: {exc}"
        ) from None
    raise PersistError(f"unknown topology event kind {kind!r}")
