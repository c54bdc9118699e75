"""JSON schemas of the two polynomial flavours' ``to_json`` output."""

LAURENT1_JSON_SCHEMA = {
    "type": "object",
    "properties": {
        "variable": {"const": "A"},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "exp": {"type": "integer"},
                    "coeff": {"type": "integer"},
                },
                "required": ["exp", "coeff"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["variable", "terms"],
    "additionalProperties": False,
}

LAURENT2_JSON_SCHEMA = {
    "type": "object",
    "properties": {
        "variables": {"const": ["a", "z"]},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "a": {"type": "integer"},
                    "z": {"type": "integer"},
                    "coeff": {"type": "integer"},
                },
                "required": ["a", "z", "coeff"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["variables", "terms"],
    "additionalProperties": False,
}
