//! Offline shim for serde's derive macros, written against the raw
//! `proc_macro` API (the build environment has neither `syn` nor `quote`).
//!
//! Supported item shapes — exactly what this workspace derives: structs
//! with named fields, serialized as a JSON object with one key per field.
//!
//! Enums, tuple and unit structs, generics, lifetimes and every
//! `#[serde(...)]` attribute are rejected with a compile-time panic rather
//! than silently mis-serialized.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives `serde::Serialize` for a named-field struct.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_serialize(&item).parse().expect("generated Serialize impl parses")
}

/// Derives `serde::Deserialize` for a named-field struct.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    generate_deserialize(&item).parse().expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// `struct Name { field: Type, ... }`: the struct's name and its fields'.
struct Item {
    name: String,
    fields: Vec<String>,
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = 0;

    skip_attributes(&tokens, &mut pos);
    skip_visibility(&tokens, &mut pos);

    let keyword = expect_ident(&tokens, &mut pos);
    let name = expect_ident(&tokens, &mut pos);
    if keyword != "struct" {
        panic!(
            "serde shim derive supports only structs with named fields, found `{keyword} {name}`"
        );
    }
    if matches!(tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive does not support generic type `{name}`");
    }
    let fields = match tokens.get(pos) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            parse_named_fields(g.stream())
        }
        _ => panic!(
            "serde shim derive supports only structs with named fields, found `struct {name}`"
        ),
    };

    Item { name, fields }
}

/// Skips any attributes at `tokens[pos]`, rejecting `#[serde(...)]` so
/// nothing is silently ignored.
fn skip_attributes(tokens: &[TokenTree], pos: &mut usize) {
    while let (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g))) =
        (tokens.get(*pos), tokens.get(*pos + 1))
    {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            return;
        }
        if matches!(g.stream().into_iter().next(), Some(TokenTree::Ident(i)) if i.to_string() == "serde")
        {
            panic!(
                "serde shim derive supports no #[serde(...)] attributes, found #[{}]",
                g.stream()
            );
        }
        *pos += 2;
    }
}

fn skip_visibility(tokens: &[TokenTree], pos: &mut usize) {
    if matches!(tokens.get(*pos), Some(TokenTree::Ident(i)) if i.to_string() == "pub") {
        *pos += 1;
        if matches!(tokens.get(*pos), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *pos += 1;
        }
    }
}

fn expect_ident(tokens: &[TokenTree], pos: &mut usize) -> String {
    match tokens.get(*pos) {
        Some(TokenTree::Ident(i)) => {
            *pos += 1;
            i.to_string()
        }
        other => panic!("expected identifier, found {other:?}"),
    }
}

fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut pos = 0;
    let mut fields = Vec::new();

    while pos < tokens.len() {
        skip_attributes(&tokens, &mut pos);
        if pos >= tokens.len() {
            break;
        }
        skip_visibility(&tokens, &mut pos);
        let name = expect_ident(&tokens, &mut pos);
        match tokens.get(pos) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => pos += 1,
            other => panic!("expected `:` after field `{name}`, found {other:?}"),
        }
        skip_type(&tokens, &mut pos);
        fields.push(name);
    }
    fields
}

/// Advances past a type expression up to (and over) the next top-level `,`.
/// Tracks `<`/`>` depth so commas inside generic arguments don't split.
fn skip_type(tokens: &[TokenTree], pos: &mut usize) {
    let mut angle_depth = 0i32;
    while *pos < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[*pos] {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    *pos += 1;
                    return;
                }
                _ => {}
            }
        }
        *pos += 1;
    }
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

fn generate_serialize(item: &Item) -> String {
    let name = &item.name;
    let pushes = item
        .fields
        .iter()
        .map(|f| {
            format!(
                "__fields.push((::std::string::String::from(\"{f}\"), \
                 ::serde::value::to_value(&self.{f})));"
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
           fn serialize<__S: ::serde::Serializer>(&self, serializer: __S) \
               -> ::std::result::Result<__S::Ok, __S::Error> {{\n\
             let mut __fields: ::std::vec::Vec<(::std::string::String, ::serde::value::Value)> = \
                 ::std::vec::Vec::new();\n\
             {pushes}\n\
             serializer.serialize_value(::serde::value::Value::Map(__fields))\n\
           }}\n\
         }}"
    )
}

fn generate_deserialize(item: &Item) -> String {
    let name = &item.name;
    // Each field: take it from `__map` (a missing key is an error), then
    // convert it; either failure returns a `__D::Error`.
    let extract = item
        .fields
        .iter()
        .map(|f| {
            format!(
                "{f}: match ::serde::value::take_field(&mut __map, \"{f}\")\
                   .and_then(::serde::value::from_value) {{ \
                   ::std::result::Result::Ok(v) => v, \
                   ::std::result::Result::Err(e) => \
                     return ::std::result::Result::Err(<__D::Error as ::serde::de::Error>::custom(e)), \
                 }},"
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    format!(
        "#[automatically_derived]\n\
         impl<'de> ::serde::Deserialize<'de> for {name} {{\n\
           fn deserialize<__D: ::serde::Deserializer<'de>>(deserializer: __D) \
               -> ::std::result::Result<Self, __D::Error> {{\n\
             let mut __map = match ::serde::Deserializer::take_value(deserializer)? {{\n\
               ::serde::value::Value::Map(m) => m,\n\
               other => return ::std::result::Result::Err(\
                 <__D::Error as ::serde::de::Error>::custom(\
                   ::std::format!(\"expected object for struct {name}, found {{other:?}}\"))),\n\
             }};\n\
             ::std::result::Result::Ok({name} {{\n{extract}\n}})\n\
           }}\n\
         }}"
    )
}
