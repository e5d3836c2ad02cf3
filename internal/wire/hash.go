package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"sort"
)

// Hash is a 32-byte SHA-256 content digest. The content-addressed result
// store keys on these: equal hashes mean byte-identical canonical
// encodings, which (by the canonical-form guarantee) mean equal values.
type Hash [32]byte

// String renders the digest as lowercase hex, the store's on-disk spelling.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Config-hash framing: a magic so config digests can never collide with
// digests of raw wire blobs, and a version bumped whenever the canonical
// value encoding below changes shape.
const (
	hashMagic   = "UVEH"
	hashVersion = 1
)

// HashConfig canonically digests an arbitrary configuration value by
// reflection: struct fields are written in declaration order with their
// names, pointers as a nil flag plus the pointee, maps with keys sorted by
// their encoded bytes, floats as IEEE-754 bits. The domain string
// namespaces independent hash users (two subsystems hashing structurally
// equal values still get distinct digests). Values containing funcs,
// channels or non-nil interfaces are not canonically encodable and return
// an *Error — configuration meant for hashing must be plain data.
func HashConfig(domain string, v any) (Hash, error) {
	out := append([]byte(nil), hashMagic...)
	out = appendUvarint(out, hashVersion)
	out = appendString(out, domain)
	out, err := appendCanonical(out, reflect.ValueOf(v))
	if err != nil {
		return Hash{}, err
	}
	return sha256.Sum256(out), nil
}

// Canonical value tags. Every encoded value is one tag byte plus a
// tag-specific payload; the tag covers the reflect.Kind so values of
// different kinds can never alias.
const (
	tagBool   = 'b'
	tagInt    = 'i'
	tagUint   = 'u'
	tagFloat  = 'f'
	tagString = 's'
	tagNil    = 'N' // nil pointer, map or slice
	tagPtr    = 'p'
	tagStruct = 'S'
	tagList   = 'L' // slice or array
	tagMap    = 'M'
)

func appendCanonical(dst []byte, rv reflect.Value) ([]byte, error) {
	switch rv.Kind() {
	case reflect.Bool:
		dst = append(dst, tagBool)
		if rv.Bool() {
			return append(dst, 1), nil
		}
		return append(dst, 0), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst = append(dst, tagInt)
		return appendVarint(dst, rv.Int()), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		dst = append(dst, tagUint)
		return appendUvarint(dst, rv.Uint()), nil
	case reflect.Float32, reflect.Float64:
		dst = append(dst, tagFloat)
		return appendUvarint(dst, math.Float64bits(rv.Float())), nil
	case reflect.String:
		dst = append(dst, tagString)
		return appendString(dst, rv.String()), nil
	case reflect.Pointer:
		if rv.IsNil() {
			return append(dst, tagNil), nil
		}
		dst = append(dst, tagPtr)
		return appendCanonical(dst, rv.Elem())
	case reflect.Struct:
		t := rv.Type()
		dst = append(dst, tagStruct)
		dst = appendUvarint(dst, uint64(t.NumField()))
		for i := 0; i < t.NumField(); i++ {
			dst = appendString(dst, t.Field(i).Name)
			var err error
			dst, err = appendCanonical(dst, rv.Field(i))
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	case reflect.Slice:
		if rv.IsNil() {
			return append(dst, tagNil), nil
		}
		fallthrough
	case reflect.Array:
		dst = append(dst, tagList)
		dst = appendUvarint(dst, uint64(rv.Len()))
		for i := 0; i < rv.Len(); i++ {
			var err error
			dst, err = appendCanonical(dst, rv.Index(i))
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	case reflect.Map:
		if rv.IsNil() {
			return append(dst, tagNil), nil
		}
		type pair struct{ k, v []byte }
		pairs := make([]pair, 0, rv.Len())
		it := rv.MapRange()
		for it.Next() {
			kb, err := appendCanonical(nil, it.Key())
			if err != nil {
				return nil, err
			}
			vb, err := appendCanonical(nil, it.Value())
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, pair{kb, vb})
		}
		sort.Slice(pairs, func(i, j int) bool {
			return string(pairs[i].k) < string(pairs[j].k)
		})
		dst = append(dst, tagMap)
		dst = appendUvarint(dst, uint64(len(pairs)))
		for _, p := range pairs {
			dst = append(dst, p.k...)
			dst = append(dst, p.v...)
		}
		return dst, nil
	case reflect.Interface:
		if rv.IsNil() {
			return append(dst, tagNil), nil
		}
		return nil, &Error{Offset: -1, PC: -1, Msg: sprintf("cannot canonically hash non-nil interface value of type %s", rv.Elem().Type())}
	default:
		return nil, &Error{Offset: -1, PC: -1, Msg: sprintf("cannot canonically hash %s value", rv.Kind())}
	}
}
