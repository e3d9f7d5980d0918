let parse ~schemas src =
  let schema_of rel =
    List.find_opt (fun s -> String.equal (Schema.name s) rel) schemas
  in
  let parse_record lineno fields delta =
    match fields with
    | sign :: rel :: fields -> (
        match schema_of rel with
        | None -> Error (Printf.sprintf "record %d: unknown relation %s" lineno rel)
        | Some schema ->
            let attrs = Schema.attributes schema in
            if List.length fields <> List.length attrs then
              Error
                (Printf.sprintf "record %d: expected %d fields for %s, got %d"
                   lineno (List.length attrs) rel (List.length fields))
            else
              let rec coerce acc attrs fields =
                match (attrs, fields) with
                | [], [] -> Ok (Tuple.make (List.rev acc))
                | (a : Schema.attribute) :: attrs, f :: fields -> (
                    match Value.of_string a.ty f with
                    | Ok v -> coerce (v :: acc) attrs fields
                    | Error e -> Error (Printf.sprintf "record %d: %s" lineno e))
                | _ -> assert false
              in
              Result.bind (coerce [] attrs fields) (fun tuple ->
                  match sign with
                  | "+" -> Ok (Delta.insert delta rel tuple)
                  | "-" -> Ok (Delta.delete delta rel tuple)
                  | s -> Error (Printf.sprintf "record %d: bad sign %S" lineno s)))
    | _ -> Error (Printf.sprintf "record %d: expected sign,relation,fields" lineno)
  in
  match Csv_io.parse_records src with
  | exception Failure e -> Error e
  | records ->
      let records =
        List.filter
          (fun r ->
            match r with
            | first :: _ -> String.length first = 0 || first.[0] <> '#'
            | [] -> false)
          records
      in
      let rec go recno delta = function
        | [] -> Ok delta
        | fields :: rest ->
            Result.bind (parse_record recno fields delta) (fun delta ->
                go (recno + 1) delta rest)
      in
      go 1 Delta.empty records

let load ~schemas path =
  match Csv_io.read_file path with
  | Error e -> Error e
  | Ok contents ->
      Result.map_error
        (fun e -> Printf.sprintf "%s: %s" path e)
        (parse ~schemas contents)
